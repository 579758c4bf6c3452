(** The sequential generator: xoshiro256++ plus conventions for deriving
    per-trial streams from a master seed.

    xoshiro256++ (Blackman, Vigna 2019) has 256 bits of state, passes
    BigCrush, and is reproducible across OCaml versions, which the
    stdlib's [Random] (whose algorithm changed in OCaml 5.0) is not.  A
    state is seeded with the first four outputs of a SplitMix64 stream,
    [Keyed.mix (seed + w * Keyed.gamma)] for [w = 0 .. 3], as the authors
    recommend.  Simulation code takes an [Rng.t] explicitly (never hidden
    global state), which is what makes experiments replayable and
    parallel runs schedule-independent.  The process kernels draw from
    {!Keyed}; an [Rng.t] feeds them one {!keyed_master} draw, and drives
    the graph generators and the random walk directly.

    The state is 32 unboxed bytes, so every draw that returns an [int]
    or a [bool] allocates nothing.  The library builds with dune's dev
    profile, whose [-opaque] stops inlining across modules, so
    {!float01} boxes its result. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from an [int] master seed.  Equal
    seeds give equal streams. *)

val for_trial : master:int -> trial:int -> t
(** [for_trial ~master ~trial] is the generator for Monte-Carlo trial
    number [trial] under master seed [master]: the state seeded at
    [Keyed.mix (master + Keyed.mix trial)].  The mapping depends only
    on the pair, so a parallel run over trials yields bitwise the same
    results as a serial one. *)

val keyed_master : t -> int
(** [keyed_master t] is one draw of [t], truncated to a non-negative
    [int]: the master seed of the {!Keyed} space a process run given [t]
    samples from.  Every COBRA/BIPS/SIS run takes exactly this one draw,
    so a run's result is a function of the generator's state. *)

val int_below : t -> int -> int
(** [int_below t n] is uniform on [\[0, n)].  Uses masked rejection
    ({!Keyed.mask_below}), so there is no modulo bias.
    @raise Invalid_argument if [n <= 0]. *)

val float01 : t -> float
(** [float01 t] is uniform on [\[0, 1)] with 53 bits of precision. *)

val bool : t -> bool
(** [bool t] is a fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [0, 1]).

    Stream contract: when [p >= 1.0] or [p <= 0.0] the outcome is
    certain and {e no state is consumed} — the generator's subsequent
    draws are exactly as if [bernoulli] had not been called.  Callers
    rely on this to keep streams aligned with code paths that skip the
    draw entirely; treat it as part of the interface, not an
    implementation detail. *)

val shuffle_in_place : t -> 'a array -> unit
(** [shuffle_in_place t a] applies a uniform Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** [pick t a] is a uniform element of [a].
    @raise Invalid_argument on an empty array. *)
