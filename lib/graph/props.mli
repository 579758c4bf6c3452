(** Structural graph properties: search, connectivity, distance,
    bipartiteness and degree statistics.

    The experiment harness uses these to (a) validate generated instances,
    (b) evaluate the paper's lower bound [max(log2 n, Diam(G))], and
    (c) decide when the lazy process variants are required (bipartite
    graphs have [lambda = 1], Section 1 of the paper). *)

(** {1 Breadth-first search}

    [bfs_distances], [is_connected], [eccentricity], [diameter] and
    [double_sweep] run one level-synchronous search that reads the int32
    CSR directly and keeps one distance array as its visited set and
    frontier test.  A level runs bottom-up (each unvisited vertex scans
    its neighbours until one is in the frontier) when the frontier's
    degree sum exceeds half the unvisited vertices' and the frontier
    holds more than [n/24] vertices, and top-down otherwise.  A level's
    vertices do not depend on its direction, so no result does.  A
    search is O(n + m). *)

val bfs_distances : Graph.t -> int -> int array
(** [bfs_distances g src] is the array of hop distances from [src];
    unreachable vertices get [-1].
    @raise Invalid_argument if [src] is not a vertex. *)

val is_connected : Graph.t -> bool
(** Whole-graph connectivity ([true] for the empty and singleton
    graphs): one search from vertex 0. *)

val components : Graph.t -> int array * int
(** [components g] labels each vertex with a component id in
    [0 .. k-1] and returns [(labels, k)].  Ids follow each component's
    smallest vertex (vertex 0's component is 0).  One breadth-first
    pass, O(n + m). *)

val eccentricity : Graph.t -> int -> int
(** [eccentricity g u] is the largest BFS distance from [u]; one search.
    The start heuristic's criterion, exported for its tests.
    @raise Invalid_argument if the graph is disconnected. *)

val diameter : Graph.t -> int
(** Exact diameter by one search from every vertex; O(n m).  Intended
    for the test and experiment sizes (n up to a few thousand).
    @raise Invalid_argument if the graph is disconnected. *)

val double_sweep : Graph.t -> int * int
(** [double_sweep g] searches from vertex 0, then from [a], the
    smallest vertex of the deepest level reached; it returns [(b, d)],
    where [b] is the smallest vertex of the second search's deepest
    level and [d] its distance from [a].  [d] is a lower bound on the
    diameter, exact on trees and usually tight in practice, and [b] is
    the eccentricity-maximising start vertex every cover estimate uses
    by default ([Estimate.start_heuristic]).  Both depend on the
    distances alone.  Two O(n + m) searches; on a disconnected graph
    both stay in vertex 0's component.
    @raise Invalid_argument on the empty graph. *)

val diameter_lower_bound : Graph.t -> int
(** [snd (double_sweep g)], and 0 for the empty graph. *)

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
