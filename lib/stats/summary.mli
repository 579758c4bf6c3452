(** Streaming univariate summaries (Welford's algorithm).

    Cover-time estimators summarise one observation per Monte-Carlo
    trial; the accumulator keeps count, mean, variance and extrema in
    O(1) space with numerically stable updates. *)

type stats = {
  count : int;
  mean : float;  (** [nan] when empty. *)
  variance : float;  (** Unbiased sample variance; 0 for one observation, [nan] when empty. *)
  stddev : float;  (** [nan] when empty. *)
  min : float;  (** [nan] when empty. *)
  max : float;  (** [nan] when empty. *)
}

val of_array : float array -> stats
(** Summary of a complete sample; the empty sample has count 0 and
    every other field [nan]. *)

val mean_confidence95 : stats -> float
(** Half-width of the normal-approximation 95% confidence interval for
    the mean: [1.96 * stddev / sqrt count].  [nan] when [count < 2] —
    a single observation carries no spread information, and 0 would
    falsely claim an exact estimate.  {!pp} prints it; exported so the
    tests can pin that contract. *)

val pp : Format.formatter -> stats -> unit
(** Renders as [mean ± ci95 (min .. max, k trials)]; the half-width
    prints as [n/a] when it is unavailable ([count < 2]). *)
