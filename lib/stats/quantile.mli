(** Exact sample quantiles.

    Cover-time distributions are heavy-tailed, so the experiment tables
    report medians and upper quantiles next to means.  Quantiles use the
    linear-interpolation convention (type 7 in the R taxonomy). *)

val quantile : float array -> float -> float
(** [quantile xs q] for [q] in [[0, 1]]; the input need not be sorted
    (a sorted copy is made).
    @raise Invalid_argument on an empty array or [q] outside [[0, 1]]. *)

val quantiles : float array -> float list -> float list
(** [quantiles xs qs] computes several quantiles with a single sort. *)
