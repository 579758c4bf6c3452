(** Eigenvalues of the random-walk transition matrix.

    The paper's spectral parameter is
    [lambda = max_{i >= 2} |lambda_i(P)|], the second largest absolute
    eigenvalue of the transition matrix [P], and the bounds of
    Theorems 1.2/1.5 are stated in terms of the gap [1 - lambda].
    Connected non-bipartite graphs have [lambda < 1]; bipartite ones have
    [lambda_n = -1], i.e. [lambda = 1].

    Every entry point runs thick-restart Lanczos ({!Lanczos.extremes})
    on the symmetric normalisation with the stationary component
    deflated: both ends of the spectrum come from one basis in tens of
    matvecs, which scales to [n = 2^20] and beyond.  The dense oracle
    the differential tests hold it to lives with the tests. *)

type not_converged = {
  best : float;      (** Best estimate at the point the solver gave up (clamped). *)
  iterations : int;
  matvecs : int;
  residual : float;  (** Final relative Ritz residual. *)
}
(** Typed non-convergence outcome: what {!second_eigenvalue_r} returns
    instead of presenting the last iterate as exact. *)

val second_eigenvalue_r :
  ?obs:Cobra_obs.Obs.t -> ?tol:float -> ?max_iter:int -> ?seed:int ->
  ?pool:Cobra_parallel.Pool.t -> Cobra_graph.Graph.t -> (float, not_converged) result
(** [second_eigenvalue_r g] estimates [lambda(G)], reporting failure to
    converge as [Error] with the best available estimate and the final
    residual rather than pretending the last iterate is exact.

    [tol] (default [1e-10]) is the convergence threshold on the
    relative Ritz residual; [max_iter] (default [200_000]) caps
    matvecs; [seed] (default 1) fixes the random start vector.  [pool]
    shards every matrix–vector product (see {!Matvec.apply}); the solve
    is bit-identical for any pool width.

    [obs] records solver telemetry under the [spectral] scope:
    [iterations], [matvecs], [restarts] counters, a [last_residual]
    gauge, and a [not_converged] counter.

    @raise Invalid_argument on the empty graph. *)

val second_eigenvalue :
  ?obs:Cobra_obs.Obs.t -> ?tol:float -> ?max_iter:int -> ?seed:int ->
  ?pool:Cobra_parallel.Pool.t -> Cobra_graph.Graph.t -> float
(** [second_eigenvalue g] is {!second_eigenvalue_r} collapsed to a
    float, clamped to [[0, 1]].  On non-convergence it returns the best
    estimate — the historical contract — but the failure is counted in
    [obs] ([spectral/not_converged]); callers that must distinguish use
    {!second_eigenvalue_r}. *)

val second_eigenvector :
  ?obs:Cobra_obs.Obs.t -> ?tol:float -> ?max_iter:int -> ?seed:int ->
  ?pool:Cobra_parallel.Pool.t -> Cobra_graph.Graph.t -> float * float array
(** [second_eigenvector g] returns [(lambda_2, v)] where [lambda_2] is
    the largest non-principal eigenvalue of [P] (signed, not absolute)
    and [v] the corresponding eigenvector of [P] (the normalised-operator
    eigenvector rescaled by [D^{-1/2}]).  [v] drives sweep-cut
    conductance estimation. *)

val lazy_second_eigenvalue :
  ?obs:Cobra_obs.Obs.t -> ?tol:float -> ?max_iter:int -> ?seed:int ->
  ?pool:Cobra_parallel.Pool.t -> Cobra_graph.Graph.t -> float
(** [lazy_second_eigenvalue g] is [lambda] of the {e lazy} walk
    [(I + P) / 2], i.e. [(1 + lambda_2(P)) / 2].  The lazy spectrum is
    non-negative, so this is well-defined (< 1) on every connected graph
    including bipartite ones — it is the parameter to use with the
    paper's regular-graph bound on bipartite instances such as the
    hypercube (remark after Theorem 1.2). *)

val lazy_eigenvalue_gap :
  ?obs:Cobra_obs.Obs.t -> ?tol:float -> ?max_iter:int -> ?seed:int ->
  ?pool:Cobra_parallel.Pool.t -> Cobra_graph.Graph.t -> float
(** [1 - lazy_second_eigenvalue g = (1 - lambda_2(P)) / 2]. *)
