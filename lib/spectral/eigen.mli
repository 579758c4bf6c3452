(** Eigenvalues of the random-walk transition matrix.

    The paper's spectral parameter is
    [lambda = max_{i >= 2} |lambda_i(P)|], the second largest absolute
    eigenvalue of the transition matrix [P], and the bounds of
    Theorems 1.2/1.5 are stated in terms of the gap [1 - lambda].
    Connected non-bipartite graphs have [lambda < 1]; bipartite ones have
    [lambda_n = -1], i.e. [lambda = 1], and the remark after Theorem 1.2
    uses the lazy walk's [lambda_2] instead.  The conductance bounds it
    is compared with reach [phi] through the sweep cut of [lambda_2]'s
    eigenvector ({!Conductance.sweep_of_vector}).

    One solve yields all of these: {!spectrum} runs thick-restart
    Lanczos ({!Lanczos.extremes}) once on the symmetric normalisation
    with the stationary component deflated, and both ends of the
    spectrum, with their vectors, come from that one basis in tens of
    matvecs, which scales to [n = 2^20] and beyond.  The dense oracle
    the differential tests hold it to lives with the tests. *)

type spectrum = {
  lambda : float;
      (** [max(|lambda_2|, |lambda_n|)] clamped to [[0, 1]]: the paper's
          [lambda]; [0] on a single vertex. *)
  lambda2 : float;  (** The largest non-principal eigenvalue of [P], signed. *)
  lazy_lambda : float;
      (** [lambda] of the lazy walk [(I + P) / 2]:
          [(1 + lambda2) / 2] clamped to [[0, 1]].  The lazy spectrum is
          non-negative, so this is below 1 on every connected graph,
          bipartite ones included. *)
  vec2 : float array;
      (** A unit eigenvector of [P] for [lambda2] (the normalised
          operator's vector rescaled by [D^{-1/2}]); it drives the sweep
          cut. *)
  stats : Lanczos.stats;
      (** The solve's telemetry.  [stats.converged = false] means the
          matvec budget ran out: every field above is then the best
          estimate at that point, not a confirmed eigenpair. *)
}

val spectrum :
  ?obs:Cobra_obs.Obs.t -> ?tol:float -> ?max_iter:int -> ?pool:Cobra_parallel.Pool.t ->
  Cobra_graph.Graph.t -> spectrum
(** [spectrum g] makes one Lanczos solve on [g] and returns every
    spectral quantity the bounds and the CLIs read.  The random start
    vector has a fixed seed, so the result is deterministic.

    [tol] (default [1e-10]) is the convergence threshold on the relative
    Ritz residual.  [max_iter] (default [200_000]) caps the matvecs
    that extend the Lanczos basis; no program lowers it, but it is the
    one way to reach the not-converged outcome, which the tests pin with
    a starved budget.  [pool] shards every matrix–vector product and
    vector reduction (see {!Matvec.apply}); the solve is bit-identical
    for any pool width.

    [obs] records solver telemetry under the [spectral] scope:
    [solves_lanczos], [iterations], [matvecs] and [restarts] counters, a
    [last_residual] gauge, and a [not_converged] counter.

    @raise Invalid_argument on the empty graph. *)
