type report = {
  horizon : int;
  cobra_tail : float array;
  bips_tail : float array;
  max_gap : float;
}

let check g ?branching ?lazy_ ~c0 ~v ~horizon () =
  Subset.check_mask ~fn:"Duality_exact.check" (Cobra_graph.Graph.n g) c0;
  let cobra_tail = Cobra_chain.hit_tail g ?branching ?lazy_ ~c0 ~target:v ~horizon () in
  let chain = Bips_chain.make g ?branching ?lazy_ ~source:v () in
  let bips_tail = Bips_chain.avoid_tail chain ~c:c0 ~horizon in
  let max_gap = ref 0.0 in
  for t = 0 to horizon do
    max_gap := Float.max !max_gap (Float.abs (cobra_tail.(t) -. bips_tail.(t)))
  done;
  { horizon; cobra_tail; bips_tail; max_gap = !max_gap }
