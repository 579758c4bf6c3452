(** Least-squares line fitting and growth-exponent estimation.

    The asymptotic claims of the paper are validated by finite-size
    scaling: if cover time grows as [Theta(n^a polylog n)], the measured
    log-log slope over an [n] sweep should approach [a] and must not
    exceed the exponent of the claimed upper bound.  [fit_loglog] and
    [fit_exponent_vs_log] implement the two fits the experiments use. *)

type fit = {
  slope : float;
  intercept : float;
  r2 : float;
      (** Coefficient of determination; 1 on an exact line, [nan] when
          [ys] has zero variance (a constant fit explains nothing, so
          goodness-of-fit is undefined there, not perfect). *)
}

val fit : float array -> float array -> fit
(** [fit xs ys] is the ordinary least-squares line [y = slope * x +
    intercept]: what the fits below run on transformed coordinates,
    exported for the exact-line tests.
    @raise Invalid_argument on length mismatch or fewer than 2 points or
    zero variance in [xs]. *)

val fit_loglog : float array -> float array -> fit
(** [fit_loglog xs ys] fits [log ys = slope * log xs + intercept]:
    [slope] estimates the polynomial growth exponent.
    @raise Invalid_argument if any coordinate is not strictly positive. *)

val fit_exponent_vs_log : float array -> float array -> fit
(** [fit_exponent_vs_log ns ys] fits [log ys = slope * log (log ns) +
    intercept]: [slope] estimates [k] for poly-logarithmic growth
    [Theta(log^k n)] (used for the hypercube experiment).
    @raise Invalid_argument if any [n <= e] or [y <= 0]. *)
