(** Top-level randomness interface used throughout the library.

    [Rng.t] is a {!Xoshiro} state plus conventions for deriving
    per-trial streams from a master seed.  Simulation code takes an
    [Rng.t] explicitly (never hidden global state), which is what makes
    experiments replayable and parallel runs schedule-independent. *)

type t = Xoshiro.t

val create : int -> t
(** [create seed] builds a generator from an [int] master seed. *)

val for_trial : master:int -> trial:int -> t
(** [for_trial ~master ~trial] is the generator for Monte-Carlo trial
    number [trial] under master seed [master].  The mapping depends only
    on the pair, so a parallel run over trials yields bitwise the same
    results as a serial one. *)

val keyed_master : t -> int
(** [keyed_master t] is one draw of [t], truncated to a non-negative
    [int]: the master seed of the {!Keyed} space a process run given [t]
    samples from.  Every COBRA/BIPS/SIS run takes exactly this one draw,
    so a run's result is a function of the generator's state. *)

val split : t -> t
(** [split t] derives a decorrelated child generator and advances [t].
    Handy for sub-simulations that must not perturb the parent stream. *)

val int_below : t -> int -> int
(** See {!Xoshiro.int_below}. *)

val float01 : t -> float
(** See {!Xoshiro.float01}. *)

val bool : t -> bool
(** See {!Xoshiro.bool}. *)

val bernoulli : t -> float -> bool
(** See {!Xoshiro.bernoulli}.  In particular, degenerate probabilities
    ([p <= 0.0] or [p >= 1.0]) consume no randomness, so streams stay
    aligned with code paths that skip the draw entirely. *)

val shuffle_in_place : t -> 'a array -> unit
(** See {!Xoshiro.shuffle_in_place}. *)

val pick : t -> 'a array -> 'a
(** [pick t a] is a uniform element of [a].
    @raise Invalid_argument on an empty array. *)
