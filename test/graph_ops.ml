(* Graph transformations the suites build their inputs with: isomorphic
   copies for label-invariance checks and disjoint unions for
   disconnected inputs.  No program needs them, so they live beside the
   tests rather than in the library. *)

module Graph = Cobra_graph.Graph

(* [disjoint_union g h] places [h] after [g]: vertex [v] of [h] becomes
   [Graph.n g + v]. *)
let disjoint_union g h =
  let offset = Graph.n g in
  let edges = ref (Graph.edges g) in
  Graph.iter_edges h (fun u v -> edges := (u + offset, v + offset) :: !edges);
  Graph.of_edges ~n:(offset + Graph.n h) !edges

(* [relabel g perm] renames vertex [u] to [perm.(u)]; raises
   [Invalid_argument] unless [perm] is a permutation of [0 .. n-1]. *)
let relabel g perm =
  let n = Graph.n g in
  if Array.length perm <> n then invalid_arg "Graph_ops.relabel: permutation length mismatch";
  let seen = Array.make n false in
  Array.iter
    (fun v ->
      if v < 0 || v >= n || seen.(v) then invalid_arg "Graph_ops.relabel: not a permutation";
      seen.(v) <- true)
    perm;
  let edges = ref [] in
  Graph.iter_edges g (fun u v -> edges := (perm.(u), perm.(v)) :: !edges);
  Graph.of_edges ~n !edges

(* [relabel] by a uniformly random permutation: an isomorphic copy. *)
let random_relabel g rng =
  let perm = Array.init (Graph.n g) (fun i -> i) in
  Cobra_prng.Rng.shuffle_in_place rng perm;
  relabel g perm
