(** Thick-restart Lanczos for the extreme eigenvalues of a symmetric
    operator, with full reorthogonalisation and deflation of known
    eigenvectors.

    This is the engine behind {!Eigen.spectrum}: the paper's spectral
    parameter needs [lambda_2] and [lambda_n] of the normalised walk
    operator, i.e. both ends of the deflated spectrum, and a single
    Lanczos basis converges to both in tens of matvecs where deflated
    power iteration needs thousands of steps per end.

    The projected (Rayleigh–Ritz) matrix is formed from the actual
    Gram–Schmidt coefficients — not the idealised three-term recurrence —
    so the computed Ritz values are genuine Rayleigh quotients of the
    orthonormal basis even after floating-point drift, and every claimed
    convergence is confirmed with an explicit [||A u - theta u||]
    residual before being reported. *)

type stats = {
  matvecs : int;      (** Operator applications, explicit residual checks included. *)
  iterations : int;   (** Basis vectors appended across all restart cycles. *)
  restarts : int;
  residual : float;   (** Worst explicit residual of the two reported pairs. *)
  converged : bool;
}

type extremes = {
  top : float;             (** Largest Ritz value (largest deflated eigenvalue). *)
  top_vec : float array;   (** Unit Ritz vector for [top]. *)
  bottom : float;          (** Smallest Ritz value. *)
  bottom_vec : float array;
  stats : stats;
}

val extremes :
  n:int ->
  matvec:(float array -> float array -> unit) ->
  ortho:float array array ->
  tol:float ->
  max_matvecs:int ->
  ?pool:Cobra_parallel.Pool.t ->
  unit ->
  extremes
(** [extremes ~n ~matvec ~ortho ~tol ~max_matvecs ()] computes the
    smallest and largest eigenvalues (with eigenvectors) of the
    symmetric operator [matvec : x -> A x] on [R^n], restricted to the
    orthogonal complement of the unit vectors in [ortho].

    [tol] is the residual threshold, relative to [max 1 |theta|].  The
    stored basis holds at most 24 vectors; when it fills, the solver
    thick-restarts keeping a few Ritz pairs from each end.
    [max_matvecs] caps the operator applications that extend the basis
    (the two explicit residual checks of the final pairs come on top);
    on exhaustion the best available pairs are returned with
    [stats.converged = false].
    The random start direction has a fixed seed, so the solve is
    deterministic.

    If the complement of [ortho] has dimension [< 24] the Krylov space
    closes on itself and the returned pairs are exact (up to the dense
    solve of the projected matrix); if it is empty, both pairs are
    zero.

    [pool] shards the Gram–Schmidt dots and axpys (the dominant vector
    work on large graphs) as well as anything the [matvec] closure
    chooses to shard; {!Matvec.dot}'s fixed-chunk reduction keeps the
    solve bit-identical at any pool width.

    @raise Invalid_argument on [n < 1]. *)

val sym_eig_qr : float array array -> float array * float array array
(** The projected solve of the Rayleigh–Ritz checkpoints, exported so
    the tests can hold it to the Jacobi oracle.  [sym_eig_qr a] is the
    full eigendecomposition of the dense
    symmetric matrix [a] (destroyed): eigenvalues in ascending order and
    [z] with [z.(i).(j)] the [i]-th component of the [j]-th eigenvector.
    Computed by Householder tridiagonalisation followed by
    implicit-shift QL with eigenvector accumulation: a single O(n^3)
    reduction instead of O(n^3) per Jacobi sweep, roughly two orders of
    magnitude faster at the basis sizes Lanczos uses, which is what
    makes its periodic Rayleigh–Ritz checkpoints affordable.  This is
    what {!extremes} calls on the projected matrix.

    @raise Failure if the QL iteration fails to converge (50-iteration
    cap per eigenvalue; unreachable for real symmetric input). *)
