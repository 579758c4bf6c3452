(** Rendering of metric snapshots as JSON ([metrics.json]). *)

val to_json : (string * Metrics.view) list -> Json.t
(** Object keyed by instrument name; counters become ints, gauges
    floats, histograms objects with [buckets]/[overflow]/[total]/[sum]
    fields. *)
