(** Fixed-capacity mutable bitsets over [0 .. capacity-1].

    This is the vertex-set representation of the process engines: a COBRA
    or BIPS round touches every member of the current set and inserts into
    the next one, so membership, insertion and O(capacity/word) iteration
    dominate the simulation cost.  Cardinality is maintained incrementally
    so [cardinal] is O(1).

    All operations expect elements within [0 .. capacity-1]; out-of-range
    elements raise [Invalid_argument].  Binary operations require both
    arguments to share the same capacity. *)

type t

val create : int -> t
(** [create capacity] is the empty set over [0 .. capacity-1].

    The capacity is capped at [2{^30}] (about 1.07e9 elements): word
    addressing divides by 63 with an exact multiply-shift whose
    reciprocal is only correct for indices below [2{^30}], and the cap
    is what keeps that trick sound.  [create (1 lsl 30)] succeeds;
    [create (1 lsl 30 + 1)] raises.  Graphs beyond a billion vertices
    must shard their vertex sets.
    @raise Invalid_argument if [capacity < 0], or if
    [capacity > 2{^30}] — the message names both the cap and the
    requested capacity. *)

val capacity : t -> int
(** Universe size the set was created with. *)

val cardinal : t -> int
(** Number of members; O(1). *)

val bits_per_word : int
(** Elements packed per machine word (63).  Word index [w] covers
    elements [w * bits_per_word .. (w+1) * bits_per_word - 1] — the unit
    in which {!drain_words_range} and friends address the set, and the
    alignment parallel kernels use to give each domain a disjoint slice
    of the universe. *)

val num_words : t -> int
(** Number of machine words backing the set ([ceil (capacity / 63)], at
    least 1).  Word ranges below are sub-intervals of [0 .. num_words]. *)

val is_empty : t -> bool

val mem : t -> int -> bool

val add : t -> int -> unit
(** Idempotent insertion. *)

val unsafe_add : t -> int -> unit
(** [add] without the range check, for kernel loops whose elements are
    in-range by construction.  Out-of-range elements corrupt the set or
    crash; prefer [add] everywhere performance does not demand
    otherwise. *)

val unsafe_set_bit : t -> int -> unit
(** Raw bit write: like {!unsafe_add} but does {e not} maintain the
    cardinality, leaving [cardinal] stale until {!unsafe_set_cardinal}
    repairs it.  This is the write primitive for domain-parallel kernels in
    which several workers set bits of the same set in disjoint word
    ranges: with no shared counter to update, disjoint-word writes are
    race-free.  Element must be in range (unchecked). *)

val clear : t -> unit
(** Removes every member. *)

val copy : t -> t

val blit : src:t -> dst:t -> unit
(** [blit ~src ~dst] makes [dst] equal to [src].  Capacities must match. *)

val equal : t -> t -> bool
(** Same capacity and members.  This, {!fold}, {!to_list} and
    {!to_array} are the readers the set tests compare against models;
    the kernels walk a set with {!next_member}. *)

val union_into : into:t -> t -> unit
(** [union_into ~into b] sets [into := into ∪ b]. *)

val intersects : t -> t -> bool
(** [intersects a b] is [true] iff [a ∩ b] is non-empty; short-circuits. *)

val iter : (int -> unit) -> t -> unit
(** Iterates members in increasing order. *)

val next_member : t -> int -> stop:int -> int
(** [next_member t i ~stop] is the smallest member [m] of [t] with
    [i <= m < stop], or [stop] if there is none ([stop] too when
    [i >= stop]).  The step kernels walk their range of a frontier with
    it in their own loop, [u := next_member t (u + 1) ~stop], so no
    closure call sits between a member and the kernel's per-vertex
    work.  @raise Invalid_argument if [i < 0] or
    [stop > capacity t]. *)

val drain_words_range : into:t -> t array -> lo:int -> hi:int -> int
(** [drain_words_range ~into srcs ~lo ~hi] overwrites each word [w] of
    [into] with [lo <= w < hi] by the bitwise OR of the corresponding
    words of [srcs], zeroes those source words, and returns the popcount
    of the merged range: the single sweep that both reduces the
    per-domain scratch sets into the round's [next] set and leaves them
    empty for the next round.  Words outside the range are untouched.
    Source [cardinal]s are {e not} maintained (scratch sets are written
    through raw bit primitives and their counts are meaningless by
    construction), and [cardinal into] is left stale: accumulate the
    returned counts into {!unsafe_set_cardinal} once all ranges are
    written.  All sets must share a capacity.
    @raise Invalid_argument on a capacity mismatch or invalid range. *)

val popcount_words_range : t -> lo:int -> hi:int -> int
(** Number of set bits whose word index lies in [\[lo, hi)] — the
    shard-local count a domain-parallel scan accumulates instead of a
    final full-universe popcount sweep.
    @raise Invalid_argument on an invalid range. *)

val clear_words_range : t -> lo:int -> hi:int -> unit
(** Zeroes the words in [\[lo, hi)] without touching [cardinal] — the
    shard-local clear of a scan kernel that overwrites [next] in place
    (each shard clears exactly the word range it then writes).
    [cardinal] is left stale; repair it with {!unsafe_set_cardinal}.
    @raise Invalid_argument on an invalid range. *)

val unsafe_set_cardinal : t -> int -> unit
(** [unsafe_set_cardinal t c] declares [c] to be the number of set bits
    — the O(1) repair after sharded writes whose per-range popcounts
    were accumulated by the caller.  A wrong [c] corrupts every
    cardinality-dependent operation. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds members in increasing order. *)

val to_list : t -> int list
(** Members in increasing order. *)

val to_array : t -> int array
(** Members in increasing order. *)

val of_list : int -> int list -> t
(** [of_list capacity xs] builds a set containing [xs]. *)

val pp : Format.formatter -> t -> unit
(** Prints as [{0, 3, 7}]. *)
