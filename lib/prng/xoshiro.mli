(** xoshiro256++: the workhorse generator of the simulation engine.

    xoshiro256++ (Blackman, Vigna 2019) has 256 bits of state, passes
    BigCrush, and is trivially reproducible across OCaml versions, which
    the stdlib's [Random] (whose algorithm changed in OCaml 5.0) is not.
    States are created from a 64-bit seed via {!Splitmix64} expansion, as
    the authors recommend.

    The state is 32 unboxed bytes, so every draw that returns an [int] or
    a [bool] allocates nothing.  The library builds with dune's dev
    profile, whose [-opaque] stops inlining across modules, so {!next64}
    and {!float01} box their result.  It is not faster than [Random]: on
    a 2-vCPU VM [int_below g 1000] takes about 17 ns (39 ns while the
    state was four mutable [int64] record fields, which boxed on every
    write) against 6–11 ns for [Random.State.int]. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] builds a state by expanding [seed] with SplitMix64.
    Equal seeds give equal streams. *)

val copy : t -> t
(** [copy t] is an independent state that will replay [t]'s future. *)

val next64 : t -> int64
(** [next64 t] returns the next 64 output bits. *)

val bits30 : t -> int
(** [bits30 t] returns 30 uniform bits as a non-negative [int]. *)

val bits62 : t -> int
(** [bits62 t] is the low 62 bits of {!next64} as a non-negative [int].
    Unlike [Int64.to_int (next64 t)] it boxes no intermediate [int64]. *)

val int_below : t -> int -> int
(** [int_below t n] is uniform on [\[0, n)].  Uses masked rejection, so
    there is no modulo bias.

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
    rely on this to align streams across process variants (e.g. a
    COBRA run with [Bernoulli 1.0] branching replays draw-for-draw as
    [Fixed 2]); treat it as part of the interface, not an
    implementation detail. *)

val jump : t -> unit
(** [jump t] advances [t] by 2{^128} steps in place.  Splitting one stream
    into non-overlapping blocks this way is an alternative to per-trial
    reseeding when sequential consistency matters more than
    schedule-independence. *)

val shuffle_in_place : t -> 'a array -> unit
(** [shuffle_in_place t a] applies a uniform Fisher–Yates shuffle. *)
