(** Counter-based keyed randomness: the only randomness of the step
    kernels in [Cobra_core.Process] — the COBRA, BIPS and SIS rounds and
    the PUSH and PUSH-PULL gossip rounds built from them.

    One mutable {!Rng} stream threaded through a round would make the
    draws a vertex sees depend on how many draws every vertex before it
    consumed, so iteration order and any sharding of the round would
    change the results.  [Keyed.t] removes that coupling: every draw is a
    pure function of the tuple [(master seed, round, vertex, draw index)],
    evaluated with the stateless SplitMix64 finaliser {!mix}.
    Two consequences the parallel kernels rely on:

    - {b schedule independence} — a round sharded over any number of
      domains, in any order, produces bit-identical results, because no
      draw depends on another vertex's draws;
    - {b random access} — repositioning to a [(round, vertex)] pair is
      two finaliser applications, so per-vertex streams need no seeding
      loop.

    A [Keyed.t] is a cheap mutable cursor (position + draw counter).
    Statistically each position opens an independent SplitMix64 stream:
    the draw at index [i] is [mix (key + gamma * i)], exactly the [i]-th
    output of a SplitMix64 state seeded at [key].

    {b One definition, inlined by the kernels.}  This module defines the
    stream.  The step kernels in [Cobra_core.Process] take only
    {!round_base} from it and compute each vertex's draws in their own
    loop bodies, with copies of {!gamma}, {!mix} and {!mask_below} and
    the counter in a local: under [-opaque] a call here boxes an int64,
    and a shared cursor written on every draw puts a sharded round's
    workers on one cache line.  [test_keyed] pins the kernels' draws to
    this module's at fixed (master, round, vertex, degree) points; the
    [bench/] and [perfbench/] draw rows call this module.

    {b Allocation.}  The cursor keeps its counter as unboxed bytes, so
    repositioning and every draw that returns an [int] or a [bool]
    ({!int_below}, {!int_below_run}, {!bool}, {!bernoulli},
    {!position}, {!position_at}) allocate nothing.  The library builds
    with dune's dev profile, whose [-opaque] stops inlining across
    modules, so a call that returns an [int64] or a [float] ({!next64},
    {!float01}, {!round_base}) boxes its result. *)

type t
(** Mutable cursor: the current position key and draw counter. *)

val gamma : int64
(** The golden-ratio increment [0x9E3779B97F4A7C15]: draw [i] at a
    position key [k] is [mix (k + gamma * i)]. *)

val mix : int64 -> int64
(** The SplitMix64 finaliser: [mix x] is the output a SplitMix64 state
    produces for counter value [x + gamma].  Defined here, beside the
    draw loops that inline it; {!Rng} seeds its states with it. *)

val model_tag : string
(** Names the randomness model the process kernels sample under: keyed
    draws at [(master, round, vertex, draw)], with the master taken from
    one {!Rng.keyed_master} draw.  Persisted results carry it in their
    address (server job digests, trial-journal lines), so a result
    sampled under an earlier model is never replayed as this one's. *)

val create : master:int -> t
(** [create ~master] is a cursor over the keyed space of [master].  Equal
    master seeds give equal draw functions.  The cursor starts positioned
    at [~round:0 ~vertex:0]. *)

val copy : t -> t
(** Independent cursor at the same position and draw counter.  This,
    {!position}, {!next64} and {!float01} are what the stream tests
    replay draws through; the kernels use {!position_at} and the
    integer draws. *)

val position : t -> round:int -> vertex:int -> unit
(** [position t ~round ~vertex] repositions the cursor and resets its
    draw counter, making subsequent draws the canonical draw sequence of
    [(master, round, vertex)].  Constant time, no allocation.  Two
    finaliser applications; hot loops that reposition once per vertex
    should hoist the round half with {!round_base} and pay one via
    {!position_at}. *)

val round_base : t -> round:int -> int64
(** [round_base t ~round] is the round half of the position key —
    loop-invariant across a round's vertices.  Feed it to
    {!position_at} to amortise the keying to a single finaliser
    application per vertex:
    [position_at t ~base:(round_base t ~round) ~vertex] is exactly
    [position t ~round ~vertex]. *)

val position_at : t -> base:int64 -> vertex:int -> unit
(** [position_at t ~base ~vertex] repositions the cursor using a
    precomputed {!round_base} — one finaliser application.  Bit-for-bit
    the same position (hence the same draws) as {!position} with the
    round the base was built from. *)

val mask_below : int -> int
(** [mask_below n] is the smallest all-ones bit mask covering
    [\[0, n)] — the rejection mask {!int_below} draws under.  No program
    calls it: [Rng] and the step kernels compute the same mask inline
    with a branch-free bit smear of [n - 1], and this loop is the
    definition the tests hold that smear to. *)

val int_below_run : t -> int -> out:int array -> count:int -> unit
(** [int_below_run t n ~out ~count] fills [out.(0 .. count-1)] with
    [count] successive {!int_below}[ t n] draws, computing the rejection
    mask once for the whole run — the vectorised form for fan-out loops.
    Draw consumption is identical to [count] separate calls.
    @raise Invalid_argument if [n <= 0] or [out] is shorter than
    [count]. *)

val next64 : t -> int64
(** Next 64 output bits at the current position; advances the draw
    counter. *)

val int_below : t -> int -> int
(** [int_below t n] is uniform on [\[0, n)]; masked rejection, no modulo
    bias — the same scheme (and hence acceptance law) as
    {!Rng.int_below}.
    @raise Invalid_argument if [n <= 0]. *)

val float01 : t -> float
(** Uniform on [\[0, 1)] with 53 bits of precision. *)

val bool : t -> bool
(** Fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p].

    Stream contract (same as {!Rng.bernoulli}): when [p >= 1.0] or
    [p <= 0.0] the outcome is certain and {e no draw is consumed} — the
    counter does not advance.  Keyed kernels rely on this so that
    [Bernoulli 1.0] branching replays draw-for-draw as [Fixed 2]. *)
