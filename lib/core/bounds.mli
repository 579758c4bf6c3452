(** The cover-time bound formulas compared in the paper.

    Each function evaluates the {e expression inside} an O(.) bound with
    unit leading constant, using natural logarithms.  The experiment
    harness reports measured times as ratios against these values; the
    asymptotic claim is validated when the ratio stays bounded (and, for
    sweeps, flat or decreasing) as [n] grows — the constants themselves
    are not claimed by the paper.

    References (paper bibliography numbers):
    - Dutta, Pandurangan, Rajaraman, Roche (SPAA'13 / TOPC'15) — [5, 6]
    - Mitzenmacher, Rajaraman, Roche (SPAA'16) — [8]
    - Cooper, Radzik, Rivera (PODC'16) — [4]
    - this paper: Theorems 1.1 and 1.2. *)

val log2 : float -> float
(** Base-2 logarithm, which {!lower_bound} uses; exported for the
    formula tests. *)

val this_paper_general : n:int -> m:int -> dmax:int -> float
(** Theorem 1.1: [m + dmax^2 log n] — this paper's bound for arbitrary
    connected graphs (improves [8]'s [n^{11/4} log n]). *)

val this_paper_regular : n:int -> r:int -> lambda:float -> float
(** Theorem 1.2: [(r / (1 - lambda) + r^2) log n] for connected r-regular
    graphs.  Requires [lambda < 1].
    @raise Invalid_argument if [lambda >= 1] or [lambda < 0]. *)

val podc16_regular : n:int -> lambda:float -> float
(** Cooper et al. PODC'16: [log n / (1 - lambda)^3].
    @raise Invalid_argument if [lambda >= 1] or [lambda < 0]. *)

val spaa16_regular : n:int -> r:int -> phi:float -> float
(** Mitzenmacher et al. SPAA'16: [(r^4 / phi^2) log^2 n] in terms of the
    conductance [phi].
    @raise Invalid_argument if [phi <= 0]. *)

val spaa16_general : n:int -> float
(** Mitzenmacher et al. SPAA'16: [n^{11/4} log n] for arbitrary connected
    graphs — the bound Theorem 1.1 improves.  It, {!spaa16_grid},
    {!rho_scaling} and {!cheeger_gap_of_phi} are paper formulas no table
    prints; they stay beside the ones the tables use, pinned by the
    formula tests. *)

val spaa16_grid : n:int -> dim:int -> float
(** Mitzenmacher et al. SPAA'16: [D^2 n^{1/D}] for D-dimensional grids. *)

val dutta_complete : n:int -> float
(** Dutta et al.: [log n] on the complete graph. *)

val dutta_expander : n:int -> float
(** Dutta et al.: [log^2 n] on constant-degree regular expanders. *)

val dutta_grid : n:int -> dim:int -> float
(** Dutta et al.: [n^{1/D}] (up to polylog) on D-dimensional grids. *)

val lower_bound : n:int -> diameter:int -> float
(** [max(log2 n, Diam(G))] — no COBRA process with [b = 2] can beat
    this, since the informed set at most doubles per round. *)

val walk_cover_lower : n:int -> float
(** [n log n]: the [b = 1] (random-walk) cover-time lower bound that
    motivates branching in the first place. *)

val rho_scaling : rho:float -> float
(** Section 6: the bounds for expected branching factor [1 + rho] carry
    an extra [1 / rho^2] factor.
    @raise Invalid_argument if [rho <= 0] or [rho > 1]. *)

val cheeger_gap_of_phi : phi:float -> float
(** [phi^2 / 2 <= 1 - lambda]: converts a conductance into the eigenvalue
    gap the paper's regular bound needs, when comparing against [8]. *)
