module Graph = Cobra_graph.Graph
module Process = Cobra_core.Process

(* Per-vertex next-round infection probability given A. *)
let infect_prob g branching lazy_ u a =
  let d = Graph.degree g u in
  if d = 0 then 0.0
  else begin
    let into = float_of_int (Subset.degree_into g u a) /. float_of_int d in
    let p1 = if lazy_ then (0.5 *. if Subset.mem a u then 1.0 else 0.0) +. (0.5 *. into) else into in
    match branching with
    | Process.Fixed b -> 1.0 -. ((1.0 -. p1) ** float_of_int b)
    | Process.Bernoulli rho -> 1.0 -. ((1.0 -. p1) *. (1.0 -. (rho *. p1)))
  end

let kernel g branching lazy_ ~skip ~states ~mask_of =
  let n = Graph.n g in
  let matrix = Array.make_matrix states states 0.0 in
  let probs = Array.make n 0.0 in
  for i = 0 to states - 1 do
    let a = mask_of i in
    for u = 0 to n - 1 do
      if u <> skip then probs.(u) <- infect_prob g branching lazy_ u a
    done;
    (* Fill the row using the product form. *)
    let row = matrix.(i) in
    for j = 0 to states - 1 do
      let a' = mask_of j in
      let p = ref 1.0 in
      for u = 0 to n - 1 do
        if u <> skip then
          p := !p *. (if Subset.mem a' u then probs.(u) else 1.0 -. probs.(u))
      done;
      row.(j) <- !p
    done
  done;
  matrix
