(** Structural graph properties: search, connectivity, distance,
    bipartiteness and degree statistics.

    The experiment harness uses these to (a) validate generated instances,
    (b) evaluate the paper's lower bound [max(log2 n, Diam(G))], and
    (c) decide when the lazy process variants are required (bipartite
    graphs have [lambda = 1], Section 1 of the paper). *)

val bfs_distances : Graph.t -> int -> int array
(** [bfs_distances g src] is the array of hop distances from [src];
    unreachable vertices get [-1]. *)

val is_connected : Graph.t -> bool
(** Whole-graph connectivity ([true] for the empty and singleton graphs). *)

val components : Graph.t -> int array * int
(** [components g] labels each vertex with a component id in
    [0 .. k-1] and returns [(labels, k)].  Ids follow each component's
    smallest vertex (vertex 0's component is 0).  One breadth-first
    pass, O(n + m). *)

val eccentricity : Graph.t -> int -> int
(** [eccentricity g u] is the largest finite BFS distance from [u].
    @raise Invalid_argument if the graph is disconnected. *)

val diameter : Graph.t -> int
(** Exact diameter by all-sources BFS; O(n m).  Intended for the test and
    experiment sizes (n up to a few thousand).
    @raise Invalid_argument if the graph is disconnected. *)

val diameter_lower_bound : Graph.t -> int
(** Double-sweep lower bound on the diameter: two BFS passes; exact on
    trees and usually tight in practice.  Cheap enough for any size. *)

val is_bipartite : Graph.t -> bool
(** Two-colourability test.  A connected bipartite graph has
    [lambda = 1]: plain COBRA/BIPS may never cover/infect it, which is
    why the paper introduces the lazy variant. *)

val degree_histogram : Graph.t -> (int * int) list
(** [(degree, count)] pairs in increasing degree order. *)

val average_degree : Graph.t -> float
(** [2m / n]; 0 for the empty graph. *)

val largest_component : Graph.t -> Graph.t
(** [largest_component g] is the subgraph induced by the largest
    connected component, vertices renumbered densely in increasing
    original order (ties between equal-size components break towards
    the component containing the smallest vertex, so the result is
    deterministic).  Returns [g] itself when already connected.  The
    standard post-processing step for Chung–Lu / configuration-model
    samples and ingested real-world graphs, whose cover times are only
    defined on a connected piece. *)

val degree_tail_exponent : ?dmin:int -> Graph.t -> float option
(** [degree_tail_exponent g] estimates the power-law tail exponent
    [gamma] of the degree distribution by least-squares on the log-log
    complementary CDF over distinct degrees [>= dmin] (default [2]):
    [log P(D >= d) = -(gamma - 1) log d + c].  [None] when fewer than
    three distinct degrees survive the cutoff (near-regular graphs have
    no tail to fit).  A sanity statistic for generator tests and
    [graph_tool] reporting, not a rigorous estimator. *)
