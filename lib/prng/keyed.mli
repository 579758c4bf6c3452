(** Counter-based keyed randomness: the only randomness of the COBRA,
    BIPS and SIS step kernels.

    One mutable {!Rng} stream threaded through a round would make the
    draws a vertex sees depend on how many draws every vertex before it
    consumed, so iteration order and any sharding of the round would
    change the results.  [Keyed.t] removes that coupling: every draw is a pure
    function of the tuple [(master seed, stream, round, vertex, draw
    index)], evaluated with the stateless {!Splitmix64.mix} finaliser.
    Two consequences the parallel kernels rely on:

    - {b schedule independence} — a round sharded over any number of
      domains, in any order, produces bit-identical results, because no
      draw depends on another vertex's draws;
    - {b random access} — repositioning to a [(round, vertex)] pair is
      two finaliser applications, so per-vertex streams cost no
      allocation and no seeding loop.

    A [Keyed.t] is a cheap mutable cursor (position + draw counter); each
    worker domain owns one and repositions it per vertex.  Statistically
    each position opens an independent SplitMix64 stream: the draw at
    index [i] is [mix (key + gamma * i)], exactly the [i]-th output of a
    SplitMix64 state seeded at [key]. *)

type t
(** Mutable cursor: the current position key and draw counter. *)

val model_tag : string
(** Names the randomness model the process kernels sample under: keyed
    draws at [(master, round, vertex, draw)], with the master taken from
    one {!Rng.keyed_master} draw.  Persisted results carry it in their
    address (server job digests, trial-journal lines), so a result
    sampled under an earlier model is never replayed as this one's. *)

val create : master:int -> t
(** [create ~master] is a cursor over the keyed space of [master].  Equal
    master seeds give equal draw functions.  The cursor starts positioned
    at [~stream:0 ~round:0 ~vertex:0]. *)

val copy : t -> t
(** Independent cursor at the same position and draw counter. *)

val position : ?stream:int -> t -> round:int -> vertex:int -> unit
(** [position t ~round ~vertex] repositions the cursor and resets its
    draw counter, making subsequent draws the canonical draw sequence of
    [(master, stream, round, vertex)].  [stream] (default 0) separates
    independent draw sequences for the same [(round, vertex)] — e.g. the
    network engine's emit/respond/update phases.  Constant time, no
    allocation.  Two finaliser applications; hot loops that reposition
    once per vertex should hoist the round half with {!round_base} and
    pay one via {!position_at}. *)

val round_base : ?stream:int -> t -> round:int -> int64
(** [round_base t ~round] is the [(stream, round)] half of the position
    key — loop-invariant across a round's vertices.  Feed it to
    {!position_at} to amortise the keying to a single finaliser
    application per vertex:
    [position_at t ~base:(round_base t ~round) ~vertex] is exactly
    [position t ~round ~vertex]. *)

val position_at : t -> base:int64 -> vertex:int -> unit
(** [position_at t ~base ~vertex] repositions the cursor using a
    precomputed {!round_base} — one finaliser application.  Bit-for-bit
    the same position (hence the same draws) as {!position} with the
    [(stream, round)] the base was built from. *)

val mask_below : int -> int
(** [mask_below n] is the smallest all-ones bit mask covering
    [\[0, n)] — the rejection mask {!int_below} draws under, exposed so
    kernels drawing many indices below the same bound can hoist it
    (see {!masked_below}). *)

val masked_below : t -> mask:int -> int -> int
(** [masked_below t ~mask n] is {!int_below t n} with the mask supplied
    by the caller; draws (and rejections) consume the counter exactly as
    {!int_below} does, so the two are draw-for-draw interchangeable.
    [mask] {e must} equal [mask_below n] — anything else skews the
    distribution.  No bound validation: kernel primitive. *)

val int_below_run : t -> int -> out:int array -> count:int -> unit
(** [int_below_run t n ~out ~count] fills [out.(0 .. count-1)] with
    [count] successive {!int_below}[ t n] draws, computing the rejection
    mask once for the whole run — the vectorised form for fan-out loops.
    Draw consumption is identical to [count] separate calls.
    @raise Invalid_argument if [n <= 0] or [out] is shorter than
    [count]. *)

val derive_seed : master:int -> stream:int -> round:int -> vertex:int -> int64
(** [derive_seed ~master ~stream ~round ~vertex] is the 64-bit position key the
    cursor would use — suitable for seeding a full {!Xoshiro} state when
    an API needs an [Rng.t] (e.g. per-vertex protocol callbacks) rather
    than keyed draws. *)

val next64 : t -> int64
(** Next 64 output bits at the current position; advances the draw
    counter. *)

val int_below : t -> int -> int
(** [int_below t n] is uniform on [\[0, n)]; masked rejection, no modulo
    bias — the same scheme (and hence acceptance law) as
    {!Xoshiro.int_below}.
    @raise Invalid_argument if [n <= 0]. *)

val float01 : t -> float
(** Uniform on [\[0, 1)] with 53 bits of precision. *)

val bool : t -> bool
(** Fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p].

    Stream contract (same as {!Xoshiro.bernoulli}): when [p >= 1.0] or
    [p <= 0.0] the outcome is certain and {e no draw is consumed} — the
    counter does not advance.  Keyed kernels rely on this so that
    [Bernoulli 1.0] branching replays draw-for-draw as [Fixed 2]. *)
