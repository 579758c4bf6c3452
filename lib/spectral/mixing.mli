(** Total-variation mixing of the (lazy) random walk.

    The paper's regular-graph bound is driven by [1/(1 - lambda)], which
    is the relaxation time of the walk; the total-variation mixing time
    obeys [t_mix <= log(n / eps) / (1 - lambda)] (lazy chains).  This
    module measures mixing directly by evolving walk distributions,
    giving experiments and users a second, spectral-free handle on how
    fast a graph supports spreading processes.

    Distribution evolution routes through {!Cheb} for deep horizons:
    [P^t e_start] is evaluated as a degree-[O(sqrt t)] Chebyshev
    polynomial in the walk operator instead of [t] successive steps, so
    probing the distribution after [10^4] rounds costs ~450 sparse
    matvecs rather than [10^4]. *)

val total_variation : float array -> float array -> float
(** [total_variation p q = (1/2) sum |p_i - q_i|].
    @raise Invalid_argument on length mismatch. *)

val stationary : Cobra_graph.Graph.t -> float array
(** The stationary distribution [pi(u) = d(u) / 2m].
    @raise Invalid_argument if the graph has no edges. *)

val walk_distribution :
  ?lazy_:bool -> ?eps:float -> ?pool:Cobra_parallel.Pool.t ->
  Cobra_graph.Graph.t -> start:int -> rounds:int -> float array
(** Distribution of the walk after [rounds] steps from [start]
    ([lazy_] default [false]: each step stays put with probability 1/2).

    One {!Cheb.apply_monomial} call over {!Matvec.distribution_op}:
    it steps [rounds] times while that is no dearer than the Chebyshev
    expansion of the [rounds]-th operator power, and evaluates the
    expansion, accurate to [eps] (default [1e-9]) per entry, beyond.
    [pool] shards the underlying matvecs (see {!Matvec.apply}). *)

val distance_to_stationarity :
  ?lazy_:bool -> ?eps:float -> ?pool:Cobra_parallel.Pool.t ->
  Cobra_graph.Graph.t -> start:int -> rounds:int -> float
(** [TV(P^t(start, .), pi)]. *)

val mixing_time :
  ?lazy_:bool -> ?eps:float -> ?max_rounds:int -> Cobra_graph.Graph.t -> int option
(** [mixing_time g] is the smallest [t] with
    [max_start TV(P^t(start, .), pi) <= eps] (default [eps = 0.25], the
    standard convention), or [None] if [max_rounds] (default [100 n])
    rounds do not suffice — which is the expected outcome for
    non-lazy walks on bipartite graphs.  Evolves all [n] starts exactly
    in lockstep: cost O(n m t), intended for [n] up to ~2000.  For one
    start on a large graph use {!mixing_time_from}.

    @raise Invalid_argument on a disconnected or empty graph. *)

val mixing_time_from :
  ?lazy_:bool -> ?eps:float -> ?max_rounds:int -> ?pool:Cobra_parallel.Pool.t ->
  Cobra_graph.Graph.t -> start:int -> int option
(** [mixing_time_from g ~start] is the smallest [t] with
    [TV(P^t(start, .), pi) <= eps] (default [0.25]), or [None] within
    [max_rounds] (default [100 n]).  TV distance from a fixed start is
    monotone non-increasing in [t], so the first crossing is located by
    geometric probing plus bisection — [O(log t)] distribution
    evaluations, each a Chebyshev solve of [O(sqrt t)] matvecs.  This
    scales to million-vertex graphs where {!mixing_time}'s all-starts
    sweep is unthinkable.

    @raise Invalid_argument on a disconnected or empty graph, or
    [start] out of range. *)
