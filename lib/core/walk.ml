module Graph = Cobra_graph.Graph
module Bitset = Cobra_bitset.Bitset
module Rng = Cobra_prng.Rng

let default_max_steps g =
  let n = Graph.n g in
  min 1_000_000_000 (200 * n * n)

let step g rng ~lazy_ u = if lazy_ && Rng.bool rng then u else Graph.random_neighbor g rng u

(* The one loop: [k] tokens from [start] each take one step per round,
   in token order, until the union of their paths covers the graph (the
   round it does) or [max_rounds] rounds pass ([None]).  [fn] names the
   caller in errors. *)
let cover ~fn g rng ~lazy_ ~max_rounds ~k ~start =
  let n = Graph.n g in
  if n = 0 then invalid_arg (fn ^ ": empty graph");
  if start < 0 || start >= n then invalid_arg (fn ^ ": start out of range");
  if k < 1 then invalid_arg (fn ^ ": k must be >= 1");
  let max_rounds = Option.value max_rounds ~default:(default_max_steps g) in
  let visited = Bitset.create n in
  Bitset.add visited start;
  let tokens = Array.make k start in
  let rounds = ref 0 in
  while Bitset.cardinal visited < n && !rounds < max_rounds do
    incr rounds;
    for i = 0 to k - 1 do
      let v = step g rng ~lazy_ tokens.(i) in
      tokens.(i) <- v;
      Bitset.add visited v
    done
  done;
  if Bitset.cardinal visited = n then Some !rounds else None

let cover_time g rng ?(lazy_ = false) ?max_steps ~start () =
  cover ~fn:"Walk.cover_time" g rng ~lazy_ ~max_rounds:max_steps ~k:1 ~start

let multi_cover_time g rng ?(lazy_ = false) ?max_rounds ~k ~start () =
  cover ~fn:"Walk.multi_cover_time" g rng ~lazy_ ~max_rounds ~k ~start
