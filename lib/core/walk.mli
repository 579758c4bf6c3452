(** Simple and multiple random walks — the classical baselines.

    COBRA with [b = 1] {e is} a simple random walk; the paper's
    introduction contrasts COBRA's cover time with the walk's
    [Omega(n log n)] lower bound and with multiple independent random
    walks (Alon et al.; Elsässer, Sauerwald).  A dedicated token-based
    implementation is used instead of the set-based engine because a
    single walk needs O(1) state per step, allowing the large step counts
    an [n log n]-time baseline requires. *)

val cover_time :
  Cobra_graph.Graph.t -> Cobra_prng.Rng.t -> ?lazy_:bool -> ?max_steps:int -> start:int ->
  unit -> int option
(** [cover_time g rng ~start ()] walks until all vertices are visited and
    returns the number of steps, or [None] after [max_steps] steps.  The
    default, [min (200 n^2) 10^9], is at least [n^3] only while
    [n <= 200].  The worst expected cover time over [n]-vertex graphs,
    [(4/27 + o(1)) n^3] on the lollipop, overtakes it near [n = 1350], so
    slow-covering graphs of that size need an explicit [max_steps].

    @raise Invalid_argument on an empty graph or bad start. *)

val multi_cover_time :
  Cobra_graph.Graph.t -> Cobra_prng.Rng.t -> ?lazy_:bool -> ?max_rounds:int -> k:int ->
  start:int -> unit -> int option
(** [multi_cover_time g rng ~k ~start ()] runs [k] independent walks, all
    from [start], advancing one step each per synchronous round; returns
    the first round at which their union has covered the graph.  With
    [k = 1] this is {!cover_time} in round units.

    @raise Invalid_argument if [k < 1]. *)
