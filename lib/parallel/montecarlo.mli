(** Deterministic parallel Monte Carlo with fault tolerance.

    Every trial gets a PRNG derived from [(master seed, trial index)], so
    the ensemble of results is a pure function of the master seed — the
    parallel schedule, the chunk size and the number of domains cannot
    change a single bit of the output.  This is what lets the test suite
    assert [serial run = parallel run] and lets EXPERIMENTS.md numbers be
    regenerated exactly.

    The same property makes every trial independently replayable, which
    the fault-tolerance layer exploits: completed trials can be
    checkpointed to a {!Journal} and replayed by a later run, a failing
    trial is isolated (recorded, optionally retried) instead of
    poisoning the ensemble, and a sweep can be cancelled cooperatively
    (SIGINT) or bounded by a deadline without losing finished work.  A
    killed-and-resumed sweep produces bit-identical results to an
    uninterrupted one. *)

type failure = {
  exn : exn;
  backtrace : Printexc.raw_backtrace;  (** Captured at the raise site in the worker. *)
  attempts : int;  (** Executions performed, counting retries. *)
}

exception Interrupted of { reason : [ `Cancelled | `Deadline ]; completed : int; total : int }
(** Raised (in the submitting thread) when a cancel token or deadline
    stopped a sweep before every trial ran.  All trials that did
    complete were already journaled and flushed, so the run can be
    resumed; [completed] counts them. *)

val with_context :
  ?journal:Journal.t -> ?cancel:Pool.Cancel.t -> ?deadline_s:float -> ?retries:int ->
  (unit -> 'a) -> 'a
(** [with_context ~journal ~cancel ~deadline_s ~retries f] runs [f] with
    ambient fault-tolerance settings: every {!run} / {!run_results}
    underneath it — however many layers down — uses them.  This is how
    the experiment harness and the server inject one journal, one cancel
    token and one deadline into sweeps nested deep inside the
    experiments without threading arguments through every layer, and it
    is the only way to set them.  The previous context is restored on
    exit; contexts are per-process and must only be managed from the
    submitting thread. *)

val run :
  ?obs:Cobra_obs.Obs.t -> ?codec:'a Journal.codec ->
  pool:Pool.t -> master_seed:int -> trials:int ->
  (trial:int -> Cobra_prng.Rng.t -> 'a) -> 'a array
(** [run ~pool ~master_seed ~trials f] evaluates
    [f ~trial rng_for_trial] for each [trial] in [0 .. trials-1] across
    the pool and returns the results in trial order.

    Fault tolerance (settings from the ambient {!with_context}):
    - With a [journal] {e and} a [codec], trials found in the journal
      are replayed without executing [f], and every trial that executes
      is appended to the journal (and flushed) when the sweep ends —
      including a sweep ended early by cancellation.
    - A trial that raises is retried up to [retries] times (default 0)
      with an identical PRNG; if it still fails the ensemble {e
      completes anyway}, the failure is journaled, and the first failing
      trial's exception is re-raised with its original backtrace.
    - [cancel] and [deadline_s] stop the sweep between chunks; completed
      trials are journaled, then {!Interrupted} is raised (unless every
      trial had already finished, in which case the sweep just
      completed).

    With an enabled [obs] the driver additionally records a per-trial
    wall-latency histogram, a trial counter and a trials/sec gauge
    (scope ["montecarlo"]) and emits one [Trial_completed] event per
    executed trial, in trial order, after the parallel loop joins —
    sinks are single-domain, so workers never touch them.  Results are
    bitwise identical with and without observability.
    @raise Invalid_argument if [trials < 1] or [retries < 0]. *)

val run_results :
  ?obs:Cobra_obs.Obs.t -> ?codec:'a Journal.codec ->
  pool:Pool.t -> master_seed:int -> trials:int ->
  (trial:int -> Cobra_prng.Rng.t -> 'a) -> ('a, failure) result array
(** Like {!run} but with per-trial failure isolation surfaced to the
    caller: failing trials come back as [Error] instead of raising, so
    one crashed trial cannot destroy the rest of the ensemble.  Raises
    {!Interrupted} only when cancellation or a deadline left trials
    unexecuted.  Exported for the fault-tolerance tests, which check
    each trial's failure record; programs call {!run}. *)
