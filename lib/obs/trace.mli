(** Structured trace events and pluggable sinks.

    Events are the run-level narrative of a simulation: rounds with
    their informed-set sizes and message counts, Monte-Carlo trials with
    their latencies, experiments with their wall time.  A sink receives
    them in emission order.  Three sinks are provided: [null] (drop —
    the default everywhere), [memory] (kept in order, for tests), and
    [jsonl] (one JSON object per line, the on-disk interchange format).

    Sinks are not synchronised: emit from the domain that owns the sink
    only.  The drivers honour this by collecting per-trial data inside
    workers into index-addressed arrays and emitting after the join. *)

type event =
  | Round_started of { round : int }
  | Round_ended of { round : int; informed : int; active : int; messages : int }
      (** [informed] is the latched coverage count, [active] the current
          set size, [messages] the transmissions of this round. *)
  | Trial_completed of { trial : int; latency_ms : float }
  | Experiment_started of { id : string }
  | Experiment_completed of { id : string; seconds : float }

val to_json : event -> Json.t
(** Tagged object, e.g. [{"event":"round_ended","round":3,...}]; the
    line a [jsonl] sink writes, exported for the round-trip tests. *)

val of_json : Json.t -> (event, string) result
(** Inverse of {!to_json}; total on everything {!to_json} produces.
    {!read_jsonl} parses with it. *)

(** {2 Sinks} *)

type sink

val null : sink

val memory : unit -> sink
(** Accumulates events in memory; read back with {!events}. *)

val jsonl : string -> sink
(** [jsonl path] opens (truncates) [path] and writes one event per
    line.  {!close} flushes and closes the channel. *)

val emit : sink -> event -> unit
(** No-op on [null] and on a closed [jsonl] sink. *)

val events : sink -> event list
(** Events recorded so far, oldest first.  Empty for non-memory
    sinks. *)

val close : sink -> unit
(** Idempotent. *)

val read_jsonl : string -> (event list, string) result
(** Parse a file written by a [jsonl] sink back into events — the
    round-trip used by tests and external consumers. *)
