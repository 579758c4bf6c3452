(** SplitMix64: a fast, well-distributed 64-bit generator used here as a
    seed expander.

    SplitMix64 (Steele, Lea, Flood; OOPSLA 2014) walks a 64-bit counter by
    the golden-ratio increment and applies a finalising mix.  Its key
    property for this library is that {e any} 64-bit seed, including small
    or structured ones, produces a well-mixed stream immediately, which
    makes it the right tool to derive independent seeds for
    {!Cobra_prng.Xoshiro} states — one per Monte-Carlo trial — from a
    single user-supplied master seed. *)

type t
(** Mutable SplitMix64 state. *)

val create : int64 -> t
(** [create seed] initialises a generator from an arbitrary 64-bit seed. *)

val next : t -> int64
(** [next t] advances the state and returns the next 64-bit output. *)

val mix : int64 -> int64
(** [mix x] is the stateless finaliser: the output SplitMix64 would produce
    for counter value [x + gamma].  Useful to hash trial indices into
    seeds without allocating a state.  It is {!Keyed.mix}, defined once
    beside the keyed draw loops that inline it. *)

val gamma : int64
(** The golden-ratio increment [0x9E3779B97F4A7C15].  [mix (k + gamma * i)]
    for [i = 0, 1, 2, ...] replays exactly the stream of a SplitMix64
    state initialised at [k] — the identity {!Keyed} uses to turn [mix]
    into a counter-based generator. *)

val seed_of_pair : int64 -> int -> int64
(** [seed_of_pair master i] derives a seed for sub-stream [i] of the master
    seed.  Distinct [(master, i)] pairs give (with overwhelming
    probability) distinct, decorrelated seeds; this underpins
    deterministic parallel Monte Carlo, where the seed of trial [i] must
    not depend on which domain executes it. *)
