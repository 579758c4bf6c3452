module Graph = Cobra_graph.Graph
module Bitset = Cobra_bitset.Bitset
module Rng = Cobra_prng.Rng

let default_max_steps g =
  let n = Graph.n g in
  min 1_000_000_000 (200 * n * n)

let step g rng ~lazy_ u = if lazy_ && Rng.bool rng then u else Graph.random_neighbor g rng u

let cover_time g rng ?(lazy_ = false) ?max_steps ~start () =
  if Graph.n g = 0 then invalid_arg "Walk.cover_time: empty graph";
  if start < 0 || start >= Graph.n g then invalid_arg "Walk.cover_time: start out of range";
  let n = Graph.n g in
  let max_steps = Option.value max_steps ~default:(default_max_steps g) in
  let visited = Bitset.create n in
  Bitset.add visited start;
  let pos = ref start in
  let steps = ref 0 in
  let result = ref None in
  if Bitset.cardinal visited = n then result := Some 0
  else begin
    try
      while !steps < max_steps do
        incr steps;
        pos := step g rng ~lazy_ !pos;
        Bitset.add visited !pos;
        if Bitset.cardinal visited = n then begin
          result := Some !steps;
          raise Exit
        end
      done
    with Exit -> ()
  end;
  !result

let multi_cover_time g rng ?(lazy_ = false) ?max_rounds ~k ~start () =
  if Graph.n g = 0 then invalid_arg "Walk.multi_cover_time: empty graph";
  if start < 0 || start >= Graph.n g then invalid_arg "Walk.multi_cover_time: start out of range";
  if k < 1 then invalid_arg "Walk.multi_cover_time: k must be >= 1";
  let n = Graph.n g in
  let max_rounds = Option.value max_rounds ~default:(default_max_steps g) in
  let visited = Bitset.create n in
  Bitset.add visited start;
  let tokens = Array.make k start in
  let rounds = ref 0 in
  let result = ref None in
  if Bitset.cardinal visited = n then result := Some 0
  else begin
    try
      while !rounds < max_rounds do
        incr rounds;
        for i = 0 to k - 1 do
          tokens.(i) <- step g rng ~lazy_ tokens.(i);
          Bitset.add visited tokens.(i)
        done;
        if Bitset.cardinal visited = n then begin
          result := Some !rounds;
          raise Exit
        end
      done
    with Exit -> ()
  end;
  !result
