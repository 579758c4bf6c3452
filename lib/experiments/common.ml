let graph_of name ~n ~seed =
  let rng = Cobra_prng.Rng.create (seed + (1000 * n)) in
  Cobra_graph.Gen.by_name name ~n rng

let verdict ok = if ok then "PASS" else "FAIL"
let section title = Printf.sprintf "\n-- %s --\n" title

let ratio measured bound =
  if Float.is_nan measured || Float.is_nan bound || bound = 0.0 then nan else measured /. bound
