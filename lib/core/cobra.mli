(** Full executions of the COBRA process.

    [cover(u)] is the number of rounds until every vertex has received a
    particle at least once, starting from [C_0 = {u}] (Section 1).  All
    runners take a [max_rounds] cap and report non-termination explicitly
    instead of looping forever — essential for plain (non-lazy) runs on
    bipartite graphs, which can fail to cover.

    Every runner takes its keyed master seed from one
    {!Cobra_prng.Rng.keyed_master} draw of the [rng] it is given (see
    {!Process}), then drives {!Rounds.run}.  [pool] shards every dense
    round over its domains with results bit-identical for any pool
    size; [dense_threshold] tunes (only) when the sharded path
    engages. *)

type run = {
  rounds : int;  (** Rounds until full coverage. *)
  transmissions : int;
      (** Total particles sent across the run: [b] per active vertex per
          round — the communication-cost metric COBRA is designed to keep
          low. *)
  visited_sizes : int array;
      (** [visited_sizes.(t)] is [|C_0 ∪ ... ∪ C_t|]; length [rounds+1]. *)
  active_sizes : int array;
      (** [active_sizes.(t)] is [|C_t|]; length [rounds+1]. *)
}

val run_cover :
  Cobra_graph.Graph.t -> Cobra_prng.Rng.t -> ?obs:Cobra_obs.Obs.t ->
  ?branching:Process.branching -> ?lazy_:bool -> ?max_rounds:int ->
  ?pool:Cobra_parallel.Pool.t -> ?rng_mode:Process.rng_mode -> ?dense_threshold:int ->
  start:int -> unit -> int option
(** [run_cover g rng ~start ()] simulates until coverage and returns the
    number of rounds, or [None] if [max_rounds] (default
    {!default_max_rounds}) elapses first.  Defaults:
    [branching = Fixed 2], [lazy_ = false].

    An enabled [obs] (default {!Cobra_obs.Obs.null}) receives a
    [Round_started]/[Round_ended] event pair per round, the latter
    carrying the latched informed count, the active-set size and the
    round's transmissions.  Observability never reads the RNG, so the
    run is bit-identical with it on or off.

    [rng_mode] supplies the keyed master explicitly, and then [rng] is
    not read.  It exists only because the frozen [perfbench/] harness
    passes it; no other runner takes one.

    @raise Invalid_argument if [start] is out of range or the graph is
    empty. *)

val run_cover_detailed :
  Cobra_graph.Graph.t -> Cobra_prng.Rng.t -> ?obs:Cobra_obs.Obs.t ->
  ?branching:Process.branching -> ?lazy_:bool -> ?max_rounds:int ->
  ?pool:Cobra_parallel.Pool.t -> ?dense_threshold:int -> start:int -> unit -> run option
(** As {!run_cover} but records the trajectory. *)

val hitting_time :
  Cobra_graph.Graph.t -> Cobra_prng.Rng.t -> ?branching:Process.branching -> ?lazy_:bool ->
  ?max_rounds:int -> ?pool:Cobra_parallel.Pool.t -> ?dense_threshold:int ->
  start:Cobra_bitset.Bitset.t -> target:int -> unit -> int option
(** [hitting_time g rng ~start ~target ()] is [Hit(target)], the first
    round at which [target] holds a particle when [C_0 = start] — the
    quantity related to BIPS by the duality Theorem 1.3.  Round 0 counts:
    if [target] is in [start] the result is [Some 0]. *)

val default_max_rounds : Cobra_graph.Graph.t -> int
(** The cap used when [max_rounds] is omitted:
    [max 10^5 (50 n (1 + max degree))]. *)
