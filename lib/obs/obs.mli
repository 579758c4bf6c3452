(** The observability context threaded through the stack as [?obs].

    A context bundles a metrics registry and a trace sink behind an
    [enabled] flag.  {!null} is the disabled context and the default of
    every [?obs] parameter: simulation code gates all instrumentation on
    {!enabled}, so with the null context no event is constructed, no
    metric is touched and no clock is read — runs are bit-identical to
    uninstrumented ones (asserted by [test_obs]).

    Contexts are single-domain, like their sinks: pass a context to the
    driver that owns it, never into parallel worker closures. *)

type t

val null : t
(** The disabled context.  Shared; emitting to it is a no-op. *)

val create : ?sink:Trace.sink -> unit -> t
(** Enabled context with a fresh metrics registry (default sink:
    {!Trace.null} — metrics only). *)

val enabled : t -> bool

val emit : t -> Trace.event -> unit
(** Forward an event to the sink; no-op when disabled. *)

val metrics : t -> Metrics.t
(** The context's registry.  The null context owns a registry too (so
    call sites stay total), but disciplined sites never reach it. *)

val sink : t -> Trace.sink
(** The sink events go to; the tests read a memory sink's events. *)

val close : t -> unit
(** Close the sink (flushes a JSONL file).  Idempotent. *)
