(** The resident simulation server.

    A server owns one shared {!Cobra_parallel.Pool} and multiplexes
    estimation jobs from many concurrent clients onto it:

    - The {b serve loop} (one domain) accepts TCP connections on
      loopback-or-configured host/port, decodes {!Wire} frames into
      {!Proto} requests, answers [ping]/[stats] inline, serves repeated
      jobs from the {!Cache} in O(1), and applies admission control —
      a full {!Sched} queue yields a typed [overloaded] response
      instead of unbounded buffering.
    - The {b executor} (one domain) drains the scheduler fairly
      (FIFO-per-client round-robin) and runs one job at a time on the
      pool, under a per-job {!Cobra_parallel.Pool.Cancel} token and
      optional deadline via {!Cobra_parallel.Montecarlo.with_context};
      trials inside a job parallelise across the pool.
    - Identical jobs {b dedup}: while a digest is queued or running,
      further submissions of the same digest attach as waiters and all
      receive the one result.
    - With a journal directory, every accepted job is persisted to
      [jobs.jsonl] and every Monte-Carlo trial checkpoints to
      [trials.jsonl] (a {!Cobra_parallel.Journal}).  A server killed
      hard — [kill -9] included — re-runs journalled-but-unfinished
      jobs at the next boot, replaying completed trials, and produces
      bit-identical results because trials are pure functions of
      [(job key, trial index)].  Completed results preload the cache.
    - With an observability directory, per-job and per-trial trace
      events stream to [events.jsonl] and a metrics snapshot is written
      at shutdown ({!Cobra_obs}).

    Determinism: a job's result depends only on its {!Key} digest
    preimage, never on scheduling, pool width, cache state or restart
    history. *)

type config = {
  host : string;  (** Bind address, default ["127.0.0.1"]. *)
  port : int;  (** 0 picks an ephemeral port; see {!port}. *)
  pool_domains : int option;  (** Extra pool domains; [None] = cores - 1. *)
  cache_capacity : int;
  queue_per_client : int;
  queue_global : int;
  journal_dir : string option;  (** Enables crash-resume when set. *)
  obs_dir : string option;
  max_frame : int;
  default_deadline_s : float option;
      (** Applied to submissions that carry no [deadline_s]. *)
}

val default_config : config
(** Loopback, port 0, cores-1 pool, 1024-entry cache, 64/1024 queue
    bounds, no journal, no obs, 16 MiB frames, no default deadline: the
    base the in-process server tests override. *)

type t

val start : config -> t
(** Binds and listens (so a client may connect as soon as [start]
    returns), loads the journal and preloads the cache, re-queues
    unfinished journalled jobs, then spawns the serve-loop and executor
    domains.  @raise Unix.Unix_error if the bind fails. *)

val port : t -> int
(** The bound port — the ephemeral one when [config.port = 0]. *)

val request_stop : t -> unit
(** Async-signal-safe shutdown request: flips the shutdown flag and
    cancels the in-flight job's token.  The serve loop notices within
    its select timeout.  Call from a signal handler, then {!stop}. *)

val stop : t -> unit
(** Graceful shutdown: {!request_stop}, then joins both domains (the
    in-flight job is cancelled cooperatively and stays journalled as
    accepted, so the next boot resumes it), sends [cancelled] errors to
    clients still waiting, flushes and closes journals and obs sinks,
    writes [stats.json] next to the journal, closes every socket and
    shuts the pool down.  Idempotent. *)
