(** One synchronous round of the COBRA, BIPS and SIS processes, and of
    the PUSH and PUSH-PULL gossip baselines built from them.

    These are the exact set processes of the paper (Section 1):

    {b COBRA} with starting set [C0 = C] and branching factor [b]: each
    vertex [v] in [C_t] independently chooses [b] neighbours uniformly at
    random {e with replacement}, and [C_{t+1}] is the set of all chosen
    vertices (multiple particles arriving at a vertex coalesce into one).

    {b BIPS} with persistent source [v]: every vertex [u <> v]
    independently chooses [b] neighbours uniformly with replacement and
    belongs to [A_{t+1}] iff at least one choice lies in [A_t]; the source
    belongs to every [A_t].

    Both processes support the paper's branching variants:
    - [Fixed b] for integer [b >= 1] ([Fixed 1] is the simple random walk
      in COBRA form, [Fixed 2] the main object of study);
    - [Bernoulli rho] for expected branching factor [1 + rho]
      (Section 6): a particle splits in two with probability [rho];
      dually a BIPS vertex samples two neighbours with probability [rho]
      and one otherwise.

    The [lazy_] flag implements the lazy variants: each individual
    neighbour selection is replaced, with probability 1/2, by the vertex
    itself.  On bipartite graphs the plain processes still run and cover,
    but the spectral parameter is degenerate ([lambda = 1]) so the
    paper's regular-graph bounds are stated for the lazy variant there
    (remark after Theorem 1.2); the lazy walk's eigenvalues
    [(1 + lambda_i)/2] are non-negative, restoring a positive gap.

    {b PUSH} and {b PUSH-PULL}, the rumor-spreading baselines the paper's
    introduction compares COBRA with, keep an informed set [I_t] that
    only grows.  A PUSH round is [I_t] together with one COBRA round at
    [Fixed 1] from [I_t]; a PUSH-PULL round adds one SIS round at
    [Fixed 1] from [I_t].  Both draw each vertex's call at the same keyed
    position, so no second kernel exists for either baseline.

    {b Randomness.}  There is one model: every draw of round [t] at
    vertex [u] is a pure function of [(master, t, u, draw index)]
    ({!Cobra_prng.Keyed}), which samples exactly the per-vertex law
    above.  A round is therefore a pure map over vertices: with a pool
    it executes sharded over domains — COBRA over the frontier's word
    ranges into per-shard scratch sets that are OR-reduced, BIPS/SIS
    over word-aligned vertex ranges written directly into disjoint words
    of [next] — with results bit-identical for every pool size,
    including none.  A fixed density threshold keeps sparse rounds on
    the serial path.

    {b One kernel per process.}  COBRA has one range kernel over a word
    range of the frontier, BIPS and SIS share one over a vertex range;
    the serial path runs it over the whole range and the sharded path
    once per claimed chunk.  {!Cobra_prng.Keyed} defines the stream,
    and the kernels compute its draws inline: the counter in a local,
    copies of its finaliser and rejection mask, the CSR read directly.
    [test_keyed] pins their draws to [Keyed]'s and holds each kernel to
    the per-vertex call chain on [Keyed] it replaced.

    Sets are {!Cobra_bitset.Bitset.t} over the vertex universe; the step
    functions write into a caller-provided [next] set so the run loop
    ({!Rounds}) runs allocation-free.  The pool's nesting rule applies:
    call the steps only from the pool's submitting thread, never from
    inside another parallel job on the same pool. *)

type rng_mode =
  | Keyed of { master : int }
      (** An explicit keyed master seed.  Only {!Cobra.run_cover} takes
          one, and only because the frozen [perfbench/] harness passes
          it; every other run draws its master from the generator it is
          given. *)

type branching =
  | Fixed of int  (** [b] independent uniform neighbour choices. *)
  | Bernoulli of float
      (** [Bernoulli rho]: two choices with probability [rho], one
          otherwise — expected branching factor [1 + rho].

          Alignment at the extremes: the split decision is drawn with
          {!Cobra_prng.Keyed.bernoulli}, which consumes no randomness
          when the probability is 0 or 1.  Consequently a
          [Bernoulli 1.0] run is draw-for-draw identical to [Fixed 2],
          and [Bernoulli 0.0] to [Fixed 1], under the same master — a
          guarantee tested in the suite and relied on by the server's
          canonical job keys. *)

val validate_branching : branching -> unit
(** @raise Invalid_argument on [Fixed b] with [b < 1] or
    [Bernoulli rho] with [rho] outside [[0, 1]].

    The step functions below do {e not} validate: they sit in the
    per-round hot loop, so the run entry points ({!Cobra}, {!Bips},
    {!Sis}) call this once per run instead.  Code driving the steps
    directly with untrusted parameters should do the same. *)

val expected_branching_factor : branching -> float
(** [Fixed b -> float b]; [Bernoulli rho -> 1 + rho]. *)

type keyed_ctx
(** Per-run state of the step kernels: the master's keyed cursor, which
    the kernels only read the round key from, one scratch set and one
    partial count per shard, PUSH-PULL's pull set, and the scheduling
    threshold.
    Create once per run; reuse across runs only when the graph
    (capacity) and master seed are the same. *)

val default_dense_threshold : int
(** 1024: the frontier (COBRA) or universe (BIPS/SIS) size above which
    a pooled round shards. *)

val make_keyed_ctx :
  ?pool:Cobra_parallel.Pool.t -> ?dense_threshold:int -> Cobra_graph.Graph.t ->
  master:int -> keyed_ctx
(** [make_keyed_ctx g ~master] builds the context for rounds of master
    seed [master] on [g].  With [pool], rounds whose frontier (COBRA) or
    universe (BIPS/SIS) exceeds [dense_threshold] (default
    {!default_dense_threshold}) shard over [Pool.size pool] shards;
    every other round runs serially.  Results do not depend on [pool]
    or [dense_threshold], only scheduling does. *)

(** The three step kernels keep their [_keyed] names because the frozen
    [perfbench/] harness calls them. *)

val cobra_step_keyed :
  Cobra_graph.Graph.t -> keyed_ctx -> round:int -> branching:branching -> lazy_:bool ->
  current:Cobra_bitset.Bitset.t -> next:Cobra_bitset.Bitset.t -> int
(** [cobra_step_keyed g ctx ~round ~branching ~lazy_ ~current ~next]
    clears [next] and fills it with [C_{t+1}] given [C_t = current], for
    round number [round] (1-based, matching the run loop's counter).
    Returns the number of transmissions performed this round (one per
    particle sent, counting lazy self-selections). *)

val cobra_step_without_replacement :
  Cobra_graph.Graph.t -> keyed_ctx -> round:int -> b:int ->
  current:Cobra_bitset.Bitset.t -> next:Cobra_bitset.Bitset.t -> int
(** Ablation variant: each active vertex sends to [b] {e distinct}
    uniformly random neighbours (or to all of them when its degree is
    below [b]).  The paper defines COBRA with replacement; experiment
    E14 uses this variant to show the choice does not affect the
    cover-time shape.  Draws come from the same keyed positions as
    {!cobra_step_keyed}; the round always runs serially.  Returns the
    transmissions performed.

    @raise Invalid_argument if [b < 1]. *)

val bips_step_keyed :
  Cobra_graph.Graph.t -> keyed_ctx -> round:int -> branching:branching -> lazy_:bool ->
  source:int -> current:Cobra_bitset.Bitset.t -> next:Cobra_bitset.Bitset.t -> unit
(** [bips_step_keyed g ctx ~round ~branching ~lazy_ ~source ~current ~next]
    clears [next] and fills it with [A_{t+1} = Infect(A_t) ∪ {source}]
    given [A_t = current]. *)

val sis_step_keyed :
  Cobra_graph.Graph.t -> keyed_ctx -> round:int -> branching:branching -> lazy_:bool ->
  current:Cobra_bitset.Bitset.t -> next:Cobra_bitset.Bitset.t -> unit
(** The BIPS refresh dynamic {e without} a persistent source: every
    vertex (including previously infected ones) samples its neighbours
    afresh.  The resulting SIS chain has two absorbing states —
    all-susceptible and all-infected — and the paper's point that the
    persistent source forces eventual full infection is exactly the
    statement that BIPS removes the first one.  Used by the E15
    extension experiment. *)

val push_step :
  Cobra_graph.Graph.t -> keyed_ctx -> round:int -> current:Cobra_bitset.Bitset.t ->
  next:Cobra_bitset.Bitset.t -> int
(** [push_step g ctx ~round ~current ~next] fills [next] with
    [I_{t+1}] given [I_t = current] for classical PUSH: every informed
    vertex sends the rumor to one uniform neighbour.  It is
    [current] ∪ {!cobra_step_keyed} at [Fixed 1], not lazy.  Returns the
    messages sent, [|I_t|]. *)

val push_pull_step :
  Cobra_graph.Graph.t -> keyed_ctx -> round:int -> current:Cobra_bitset.Bitset.t ->
  next:Cobra_bitset.Bitset.t -> int
(** [push_pull_step g ctx ~round ~current ~next] fills [next] with
    [I_{t+1}] given [I_t = current] for PUSH-PULL: every vertex calls one
    uniform neighbour, and the rumor crosses the call in either
    direction.  It is {!push_step} ∪ {!sis_step_keyed} at [Fixed 1], not
    lazy; both halves read the caller's one draw, so an informed caller
    pushes and an uninformed caller pulls.  Returns the messages sent,
    [2n]: each call is a request and a reply. *)

val bips_candidate_set :
  Cobra_graph.Graph.t -> source:int -> current:Cobra_bitset.Bitset.t ->
  into:Cobra_bitset.Bitset.t -> unit
(** [bips_candidate_set g ~source ~current ~into] computes the paper's
    candidate set (definition (6), Section 3):
    [C = (N(A) ∪ {v}) \ B_fix] where [B_fix = { u : N(u) ⊆ A }] — the
    vertices whose membership in the next infected set is genuinely
    random.  The paper proves [C] is never empty before completion;
    Corollary 5.2 lower-bounds its size on regular graphs. *)
