(* The preferential-attachment generator that [Gen_extra.barabasi_albert]
   ran before it read its targets from the builder's edge buffer, kept as
   the reference the generator is held to: the same seed clique, the same
   draws and the same collision retry, with every endpoint pushed onto an
   amortised growable array of its own and the edges collected as a
   tuple array.  No code shared with [Gen_extra] beyond
   [Graph.of_edge_array] and the [Rng] draws. *)

module Graph = Cobra_graph.Graph
module Rng = Cobra_prng.Rng

let barabasi_albert ~n ~m rng =
  if m < 1 || m >= n then invalid_arg "Gen_extra.barabasi_albert: need 1 <= m < n";
  let total_edges = (m * (m + 1) / 2) + (m * (n - m - 1)) in
  let endpoints = ref (Array.make (max 16 (2 * total_edges)) 0) in
  let count = ref 0 in
  let edges = Array.make total_edges (0, 0) in
  let added = ref 0 in
  let push x =
    if !count = Array.length !endpoints then begin
      let bigger = Array.make (2 * Array.length !endpoints) 0 in
      Array.blit !endpoints 0 bigger 0 !count;
      endpoints := bigger
    end;
    !endpoints.(!count) <- x;
    incr count
  in
  let add_edge u v =
    edges.(!added) <- (u, v);
    incr added;
    push u;
    push v
  in
  for u = 0 to m do
    for v = u + 1 to m do
      add_edge u v
    done
  done;
  let chosen = Array.make m (-1) in
  for v = m + 1 to n - 1 do
    let k = ref 0 in
    while !k < m do
      let target = !endpoints.(Rng.int_below rng !count) in
      if target <> v then begin
        let dup = ref false in
        for i = 0 to !k - 1 do
          if chosen.(i) = target then dup := true
        done;
        if not !dup then begin
          chosen.(!k) <- target;
          incr k
        end
      end
    done;
    for i = 0 to m - 1 do
      add_edge v chosen.(i)
    done
  done;
  Graph.of_edge_array ~n edges
