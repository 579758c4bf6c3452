(** Monte-Carlo estimators for cover, infection and hitting times.

    One estimator per process.  Each wraps the process runner in the
    deterministic parallel {!Cobra_parallel.Montecarlo} and returns both
    moment summaries and quantiles, which is what the experiment tables
    report.  Trials that hit the round cap are counted separately
    ([censored]) and excluded from the summary — silently mixing the cap
    value into means would corrupt ratios against bounds, so
    non-termination is surfaced instead. *)

type result = {
  summary : Cobra_stats.Summary.stats;
  median : float;
  q90 : float;  (** 90th percentile — a proxy for the w.h.p. statement. *)
  censored : int;  (** Trials that exceeded the round cap. *)
  mean_transmissions : float;
      (** Mean total transmissions per completed trial (COBRA only;
          [nan] for BIPS estimates). *)
  values : float array;
      (** The completed trials' values, in trial order: the sample the
          summary and quantiles are computed from. *)
}

val start_heuristic : Cobra_graph.Graph.t -> int
(** A worst-case-ish start vertex: [fst (Props.double_sweep g)], the far
    vertex of a double BFS sweep (an eccentricity-maximising heuristic).
    [COVER(G)] maximises over starts; the sweeps use this vertex so
    path-like graphs are probed from their hard end.
    @raise Invalid_argument on the empty graph. *)

val cover_time :
  ?obs:Cobra_obs.Obs.t -> pool:Cobra_parallel.Pool.t -> ?dense_threshold:int ->
  master_seed:int -> trials:int -> ?branching:Process.branching -> ?lazy_:bool ->
  ?max_rounds:int -> ?start:int -> Cobra_graph.Graph.t -> result
(** COBRA cover time from [start] (default {!start_heuristic}).

    Every trial runs through {!Cobra_parallel.Montecarlo.run}, so the
    ambient journal, cancel token, deadline and retry budget apply, and
    an enabled [obs] receives its trial latency metrics and events (it
    is {e not} passed into the per-trial runners).  Trial [t] samples
    with the keyed master {!trial_master}[ ~master_seed ~trial:t].

    The schedule follows the workload's shape: with fewer trials than
    [Pool.size pool] on a graph larger than [dense_threshold] (default
    {!Process.default_dense_threshold}), trials run one after another
    and the pool shards the rounds inside each; otherwise the pool runs
    whole trials in parallel.  Both schedules give bit-identical
    results.
    @raise Invalid_argument if [trials < 1]. *)

val cover_time_keyed :
  ?obs:Cobra_obs.Obs.t -> pool:Cobra_parallel.Pool.t -> ?dense_threshold:int ->
  master_seed:int -> trials:int -> ?branching:Process.branching -> ?lazy_:bool ->
  ?max_rounds:int -> ?start:int -> Cobra_graph.Graph.t -> result
(** An alias of {!cover_time}, kept only because the frozen
    [perfbench/] harness calls it by this name. *)

val trial_master : master_seed:int -> trial:int -> int
(** The keyed master seed trial [trial] of an estimate with [master_seed]
    samples under: the {!Cobra_prng.Rng.keyed_master} draw of
    {!Cobra_prng.Rng.for_trial}.  Exposed so callers can replay a single
    trial at its master. *)

val infection_time :
  ?obs:Cobra_obs.Obs.t -> pool:Cobra_parallel.Pool.t -> ?dense_threshold:int ->
  master_seed:int -> trials:int -> ?branching:Process.branching -> ?lazy_:bool ->
  ?max_rounds:int -> ?source:int -> Cobra_graph.Graph.t -> result
(** BIPS infection time with persistent source [source] (default
    {!start_heuristic}); trials and scheduling as in {!cover_time}. *)

val walk_cover_time :
  ?obs:Cobra_obs.Obs.t -> pool:Cobra_parallel.Pool.t -> master_seed:int -> trials:int ->
  ?lazy_:bool ->
  ?max_steps:int -> ?start:int -> Cobra_graph.Graph.t -> result
(** Simple-random-walk cover time (steps), the [b = 1] baseline. *)

val multi_walk_cover_time :
  ?obs:Cobra_obs.Obs.t -> pool:Cobra_parallel.Pool.t -> master_seed:int -> trials:int ->
  k:int -> ?lazy_:bool ->
  ?max_rounds:int -> ?start:int -> Cobra_graph.Graph.t -> result
(** Cover time (rounds) of [k] independent walks from a common start. *)
