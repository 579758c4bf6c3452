(** Trial-level JSONL checkpoint journals.

    Every Monte-Carlo trial in this codebase is a pure function of
    [(model, experiment, sweep, master seed, trial index)] — see
    {!Montecarlo}; the model is {!Cobra_prng.Keyed.model_tag} — so a completed trial never has to be recomputed: the
    journal appends one JSON line per completed trial as a checkpoint,
    and a later run that reaches the same address replays the recorded
    value instead of re-simulating.  A sweep interrupted by SIGINT, a
    deadline or a crashing trial therefore resumes where it left off and
    produces bit-identical tables (floats are serialized with 17
    significant digits and round-trip exactly; [nan] round-trips through
    JSON [null]).

    Line format (one object per line, one line per completed trial):
    {v
    {"model":"keyed-1","experiment":"e4","sweep":2,"master_seed":2017,
     "trials":24,"trial":7,"status":"ok","value":[123.0,456.0]}
    v}

    A trial that raised writes no line and runs again on resume.
    Journals written before that rule may hold ["status":"error"] lines;
    {!load} skips them.  Mismatched addresses (a different seed, scale
    or code path, or a line written under another randomness model —
    including untagged lines, which predate the tag) contribute nothing,
    so resuming with the wrong configuration degrades to a fresh run
    rather than corrupting results.

    Only what {!load} read is replayed.  Within one process every sweep
    has its own address, so the lines a journal appends are never looked
    up by the process that wrote them.

    The journal is single-domain: the Monte-Carlo driver records from
    the submitting thread after each sweep joins, never from workers. *)

type t

(** {2 Value codecs}

    {!Montecarlo.run} is polymorphic in the trial result, so each
    journaled call site supplies a [codec] saying how its result maps to
    JSON.  Combinators below cover the shapes the experiments use. *)

type 'a codec = { encode : 'a -> Cobra_obs.Json.t; decode : Cobra_obs.Json.t -> 'a option }

val float_ : float codec
(** Round-trips exactly, including [nan] (via JSON [null]). *)

val int_ : int codec
val pair : 'a codec -> 'b codec -> ('a * 'b) codec
val triple : 'a codec -> 'b codec -> 'c codec -> ('a * 'b * 'c) codec

val option : 'a codec -> 'a option codec
(** Tagged ([{"some":v}] / [{"none":true}]) so [Some nan] and [None]
    stay distinguishable. *)

val array : 'a codec -> 'a array codec

val conv : ('a -> 'b) -> ('b -> 'a) -> 'b codec -> 'a codec
(** [conv to_repr of_repr c] journals ['a] through its representation
    ['b] — the way record results are encoded. *)

(** {2 Lifecycle} *)

val create : string -> t
(** [create path] truncates/creates [path] and starts an empty journal
    writing to it. *)

val load : string -> t
(** [load path] parses an existing journal (a missing file is an empty
    journal) and reopens it for append: recorded trials will be
    replayed, new completions appended to the same file.  Malformed
    lines — e.g. a partial last line after a hard kill — are counted and
    skipped, never fatal. *)

val set_experiment : t -> string -> unit
(** Scopes subsequent sweeps to an experiment id and restarts the sweep
    numbering — call before each experiment, in a deterministic order. *)

val flush : t -> unit
val close : t -> unit
(** Idempotent; flushes first. *)

val path : t -> string

(** {2 Counters} (for end-of-run reporting) *)

val loaded : t -> int
(** ["ok"] lines of this randomness model parsed by {!load}. *)

val malformed : t -> int
val replayed : t -> int
(** Trials served from the journal instead of executed, so far. *)

val appended : t -> int
(** Lines written by this process, so far. *)

(** {2 Sweep recording} — used by {!Montecarlo}, not by end users. *)

type sweep

val begin_sweep : t -> master_seed:int -> trials:int -> sweep
(** Allocates the next sweep index under the current experiment. *)

val find : sweep -> trial:int -> Cobra_obs.Json.t option
(** The value {!load} read for a trial of this sweep, if any; bumps
    the replay counter when found. *)

val record_ok : sweep -> trial:int -> Cobra_obs.Json.t -> unit
(** Appends the trial's line; replay reads only what {!load} read. *)
