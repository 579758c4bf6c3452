(** Power-law random graph models: Chung–Lu expected degrees and the
    erased configuration model.

    These are the generators for the skewed-degree regime the paper's
    Theorem 1.1 general bound is really about (its [t_mix·dmax²·log n]
    term is vacuous on the near-regular families the base experiments
    use), and the regime the follow-up COBRA analyses
    (Mitzenmacher–Rajaraman–Roche, Kanade–Mallmann-Trenn–Sauerwald)
    study directly.

    Generation is O(n + m) expected time via the Miller–Hagberg
    geometric-skip traversal over weight-sorted vertex pairs, and
    construction runs through {!Builder}, so sampling multi-million-edge
    instances takes seconds and ~3 words/edge. *)

val power_law_weights :
  n:int -> exponent:float -> ?wmin:float -> ?wmax:float -> unit -> float array
(** This and {!chung_lu} are the two steps of {!power_law}, exported
    for the degree-law tests.  [power_law_weights ~n ~exponent ()] is
    the deterministic weight
    sequence [w_i = wmin * (n / (i+1))^(1/(exponent-1))], decreasing,
    whose induced Chung–Lu degree distribution has tail exponent
    [exponent].  [wmin] defaults to [1.0]; [wmax] (no default) caps the
    head of the sequence.
    @raise Invalid_argument unless [n >= 1], [exponent > 1], [wmin > 0]. *)

val chung_lu : weights:float array -> Cobra_prng.Rng.t -> Graph.t
(** [chung_lu ~weights rng] samples the Chung–Lu random graph in which
    pair [(i, j)] is an edge independently with probability
    [min(1, w_i * w_j / sum w)] — so [E degree(i) ≈ w_i] whenever no
    probability saturates.  Expected O(n + m) time; the result may be
    disconnected (combine with {!Props.largest_component}).
    @raise Invalid_argument on an empty array or negative/non-finite
    weights. *)

val power_law :
  n:int -> exponent:float -> ?avg_degree:float -> Cobra_prng.Rng.t -> Graph.t
(** [power_law ~n ~exponent rng] is {!chung_lu} over
    {!power_law_weights} rescaled to mean [avg_degree] (default [8.0])
    and capped at [sqrt(avg_degree * n)] so no pairwise probability
    saturates grossly.  The workhorse entry point behind the
    ["chunglu:<exponent>[:<avg>]"] family strings. *)

val power_law_degrees :
  n:int -> exponent:float -> ?dmin:int -> ?dmax:int -> Cobra_prng.Rng.t -> int array
(** [power_law_degrees ~n ~exponent rng] samples [n] i.i.d. integer
    degrees from the discrete Pareto tail
    [P(D >= d) = (dmin / d)^(exponent-1)], truncated to
    [[dmin, dmax]] ([dmax] defaults to [n-1]), with one entry nudged so
    the sum is even — a valid {!configuration_model} prescription.
    @raise Invalid_argument unless [n >= 1], [exponent > 1],
    [1 <= dmin <= dmax]. *)

val configuration_model : degrees:int array -> Cobra_prng.Rng.t -> Graph.t
(** [configuration_model ~degrees rng] samples the erased configuration
    model: a uniform perfect matching on degree stubs with self-loops
    and parallel edges removed, so realised degrees are at most (and
    typically close to) the prescribed ones.  O(sum degrees) time.
    @raise Invalid_argument on an odd degree sum or a degree outside
    [[0, n-1]]. *)
