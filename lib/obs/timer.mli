(** Wall-clock timers for run and trial latencies.

    Backed by the highest-resolution wall clock the stdlib exposes
    ([Unix.gettimeofday], microsecond resolution) — good enough for the
    millisecond-scale trial and experiment latencies the metrics track.
    Timers never touch any RNG, so timing a simulation cannot change its
    result. *)

type t

val start : unit -> t

val elapsed_s : t -> float
(** Seconds since [start]; monotone in repeated calls on one timer
    except across system clock steps. *)

val stamp : unit -> float
(** Current unix epoch time in seconds — manifest timestamps.  If the
    [SOURCE_DATE_EPOCH] environment variable holds a valid non-negative
    epoch, that value is returned instead (the reproducible-builds
    convention), so repeated runs can emit byte-identical manifests.
    Elapsed-time measurement ({!start}/{!elapsed_s}) is unaffected. *)

val iso8601 : float -> string
(** [iso8601 t] renders an epoch stamp as ["YYYY-MM-DDThh:mm:ssZ"]. *)
