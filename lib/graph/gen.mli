(** Generators for every graph family discussed in the paper.

    The SPAA'17 analysis and its predecessors quantify the COBRA cover
    time on: complete graphs and expanders (Dutta et al.), r-regular
    graphs parameterised by the eigenvalue gap (this paper, Cooper et al.
    PODC'16), D-dimensional grids and tori (Dutta, Mitzenmacher et al.),
    hypercubes (the worked example of this paper), and arbitrary connected
    graphs — for which the hard instances are path-like and
    volume-skewed graphs such as lollipops and barbells.  Each generator
    below produces one of those families; randomised generators take an
    explicit {!Cobra_prng.Rng.t}.  Programs reach the families through
    {!by_name}; the tests and examples call the constructors directly,
    which is why some ({!wheel}, {!binary_tree}, {!lollipop},
    {!barbell}, {!ladder}, {!erdos_renyi_gnp}, {!connected_gnp},
    {!random_tree}) have no other caller outside this module. *)

val complete : int -> Graph.t
(** [complete n] is K{_n}.  @raise Invalid_argument if [n < 1]. *)

val path : int -> Graph.t
(** [path n] is the path P{_n} on vertices [0 - 1 - ... - n-1]. *)

val cycle : int -> Graph.t
(** [cycle n] is the cycle C{_n}.  @raise Invalid_argument if [n < 3]. *)

val star : int -> Graph.t
(** [star n] has centre [0] joined to [1 .. n-1]. *)

val wheel : int -> Graph.t
(** [wheel n] is a cycle on [1 .. n-1] plus a hub [0]; [n >= 4]. *)

val complete_bipartite : int -> int -> Graph.t
(** [complete_bipartite a b] is K{_a,b} with sides [0..a-1], [a..a+b-1]. *)

val binary_tree : int -> Graph.t
(** [binary_tree n] is the complete binary tree heap-indexed on [n]
    vertices: vertex [i] is joined to [2i+1] and [2i+2] when in range. *)

val grid : dims:int list -> Graph.t
(** [grid ~dims] is the D-dimensional grid (lattice without wraparound)
    with side lengths [dims]; vertices are mixed-radix encoded. *)

val torus : dims:int list -> Graph.t
(** [torus ~dims] is the D-dimensional torus: wraparound in every
    dimension of length >= 3 (length-2 dimensions behave as grid edges to
    keep the graph simple). *)

val hypercube : int -> Graph.t
(** [hypercube d] is the d-dimensional cube on [n = 2^d] vertices: the
    paper's running example, degree [r = d = log2 n]. *)

val lollipop : clique:int -> tail:int -> Graph.t
(** [lollipop ~clique ~tail] joins K{_clique} to a path of [tail] extra
    vertices; the classical high-hitting-time instance. *)

val barbell : clique:int -> bridge:int -> Graph.t
(** [barbell ~clique ~bridge] is two copies of K{_clique} joined by a
    path of [bridge] intermediate vertices ([bridge >= 0]; with 0 the two
    cliques share one connecting edge). *)

val ladder : int -> Graph.t
(** [ladder k] is the 2 x k grid (the circular ladder is [torus ~dims:[2; k]]). *)

val petersen : unit -> Graph.t
(** The Petersen graph: 10 vertices, 3-regular, a tiny vertex-transitive
    test instance. *)

val erdos_renyi_gnp : n:int -> p:float -> Cobra_prng.Rng.t -> Graph.t
(** [erdos_renyi_gnp ~n ~p rng] samples G(n, p): each pair is an edge
    independently with probability [p].  The result may be disconnected;
    combine with {!Props.is_connected} or use {!connected_gnp}. *)

val connected_gnp : n:int -> p:float -> ?max_tries:int -> Cobra_prng.Rng.t -> Graph.t
(** [connected_gnp ~n ~p rng] resamples G(n, p) until connected.
    @raise Failure after [max_tries] (default 1000) failures. *)

val random_tree : n:int -> Cobra_prng.Rng.t -> Graph.t
(** [random_tree ~n rng] is a uniformly random labelled tree on [n]
    vertices, decoded from a random Pruefer sequence ([n >= 1]). *)

val random_regular :
  n:int -> r:int -> ?switches_per_edge:int -> ?ensure_connected:bool ->
  Cobra_prng.Rng.t -> Graph.t
(** [random_regular ~n ~r rng] samples an r-regular simple graph on [n]
    vertices by randomising a circulant base graph with double-edge
    switches (an MCMC that preserves degrees and simplicity exactly).
    [switches_per_edge] (default 30) controls mixing.  With
    [ensure_connected] (default [true]) the chain is continued until the
    sample is connected — for [r >= 3] random regular graphs are
    connected w.h.p., so this costs little.

    Random regular graphs are expanders w.h.p., which is how the
    experiments obtain instances with a large measured eigenvalue gap.

    @raise Invalid_argument if [r >= n], [r < 1], or [n * r] is odd. *)

val by_name :
  string -> n:int -> Cobra_prng.Rng.t -> Graph.t
(** [by_name family ~n rng] builds a family member with ~[n] vertices
    from a textual name used by the CLIs and the experiment harness:
    ["complete"], ["path"], ["cycle"], ["star"], ["wheel"], ["binary-tree"],
    ["grid2d"], ["grid3d"], ["torus2d"], ["torus3d"], ["hypercube"],
    ["lollipop"], ["barbell"], ["ladder"], ["petersen"],
    ["random-tree"], ["gnp"], ["regular-3"], ["regular-4"], ["regular-8"],
    ["regular-16"], ["cycle-matching"], ["small-world"], ["pref-attach"],
    ["ccc"], ["broom"].  Families with dimensional structure round [n] to the
    nearest realisable size (e.g. a square for ["grid2d"], a power of two
    for ["hypercube"]); the realised size is [Graph.n] of the result.

    Parameterized power-law families carry their model parameters in
    the name, colon-separated:
    - ["chunglu:<exponent>[:<avg_degree>]"] — Chung–Lu expected-degree
      power law ({!Chung_lu.power_law}, average degree default 8),
      giant component extracted so the result is connected;
    - ["config:<exponent>[:<dmin>]"] — erased configuration model over
      {!Chung_lu.power_law_degrees} ([dmin] default 2), giant component
      extracted;
    - ["ba:<m>"] — Barabási–Albert preferential attachment with [m]
      edges per new vertex ({!Gen_extra.barabasi_albert}).

    @raise Invalid_argument on an unknown name or malformed parameter. *)

val family_names : string list
(** All names accepted by {!by_name}, for CLI listings. *)
