(** Total-variation mixing of the (lazy) random walk.

    The paper's regular-graph bound is driven by [1/(1 - lambda)], which
    is the relaxation time of the walk; the total-variation mixing time
    obeys [t_mix <= log(n / eps) / (1 - lambda)] (lazy chains).  This
    module measures mixing directly by evolving walk distributions,
    giving experiments and users a second, spectral-free handle on how
    fast a graph supports spreading processes. *)

val mixing_time :
  ?lazy_:bool -> ?eps:float -> ?max_rounds:int -> Cobra_graph.Graph.t -> int option
(** [mixing_time g] is the smallest [t] with
    [max_start TV(P^t(start, .), pi) <= eps] (default [eps = 0.25], the
    standard convention), where [pi(u) = d(u) / 2m] is the stationary
    distribution, or [None] if [max_rounds] (default [100 n]) rounds do
    not suffice — which is the expected outcome for non-lazy walks on
    bipartite graphs.  [lazy_] (default [false]) makes each step stay
    put with probability 1/2.  Evolves all [n] starts exactly in
    lockstep through {!Matvec.distribution_op}: cost O(n m t), intended
    for [n] up to ~2000.

    @raise Invalid_argument on a disconnected or empty graph. *)
