(** Classical random-walk quantities, computed exactly.

    The [b = 1] baseline of the paper is the simple random walk, whose
    cover time is classically sandwiched by Matthews' bounds:
    [E(cover) <= H_max * H_{n-1}] and [E(cover) >= H_min_pairs * H_{n-1}]
    with [H_k] the harmonic numbers and [H(u,v)] expected hitting times.

    Hitting times to a target solve the {e grounded Laplacian} system
    [L_g h = d] on [V \ {target}] — symmetric positive definite — which
    is solved by Jacobi-preconditioned conjugate gradients with a
    BFS-distance warm start: [O(sqrt(kappa))] sparse matvecs instead of
    the dense [O(n^3)] pseudo-inverse, so single-target hitting times
    scale to [n] in the millions.  Commute times and effective
    resistances are built from the same solves; the dense [L^+] oracle
    the differential tests pin the CG path against lives with the
    tests.

    Exact values let the test suite pin the Monte-Carlo walk engine to
    theory, and let experiment E9 report how close the [b = 1] baseline
    sits to its classical envelope. *)

val hitting_times : Cobra_graph.Graph.t -> target:int -> float array
(** [hitting_times g ~target] is the array [u -> E(H(u, target))] for the
    simple random walk; entry [target] is 0.  Solved by preconditioned
    CG on the grounded Laplacian until the relative residual
    [||L_g h - d|| / ||d||] falls below [1e-8], or for at most
    [max 1000 (20 n)] iterations.  Deterministic.  One column of
    {!all_hitting_times}, exported for the closed-form tests.

    @raise Invalid_argument on a disconnected graph or bad target. *)

val all_hitting_times :
  ?obs:Cobra_obs.Obs.t -> ?pool:Cobra_parallel.Pool.t -> Cobra_graph.Graph.t ->
  float array array
(** [all_hitting_times g] is the matrix [h.(u).(v) = E(H(u, v))] for all
    pairs: one CG solve per target column, each as in {!hitting_times},
    spread over [pool] when given (columns are independent; the result
    does not depend on the pool).  [obs] counts the solves and their
    iterations under the [walk] scope ([cg_solves], [cg_iterations])
    and gauges the worst final residual ([cg_residual]).

    @raise Invalid_argument on a disconnected graph. *)

val max_hitting_time :
  ?obs:Cobra_obs.Obs.t -> ?pool:Cobra_parallel.Pool.t -> Cobra_graph.Graph.t -> float
(** [max_hitting_time g] is [H_max = max_{u,v} E(H(u, v))], via
    {!all_hitting_times}. *)

val harmonic : int -> float
(** [harmonic k] is [H_k = 1 + 1/2 + ... + 1/k]; [H_0 = 0].  The factor
    of {!matthews_upper}, exported for the tests' Matthews bounds. *)

val matthews_upper : n:int -> h_max:float -> float
(** Matthews' upper bound on the walk cover time from any start of an
    [n]-vertex graph whose maximum hitting time is [h_max]:
    [h_max * H_{n-1}].  It takes {!max_hitting_time}'s value rather than
    the graph, so a caller that prints both pays for one all-pairs
    solve. *)
