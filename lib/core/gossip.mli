(** Cover times of the rumor-spreading baselines, PUSH and PUSH-PULL.

    The paper's introduction presents COBRA as a way to spread
    information quickly while each vertex sends a bounded number of
    messages per round; experiment E13 measures it against these two
    classical protocols.  The rumor starts at one vertex, and the
    informed set only grows:

    - {b PUSH}: every informed vertex sends the rumor to one uniform
      neighbour per round ({!Process.push_step}).  A round costs
      [|I_t|] messages.
    - {b PUSH-PULL}: every vertex calls one uniform neighbour per round,
      and the rumor crosses the call in either direction
      ({!Process.push_pull_step}).  A call is a request and a reply, so
      a round costs [2n] messages.

    The runner takes its keyed master from one
    {!Cobra_prng.Rng.keyed_master} draw of [rng] and drives
    {!Rounds.run}.  With [pool], rounds above
    {!Process.default_dense_threshold} shard over its domains, with
    results bit-identical for any pool size. *)

type protocol = Push | Push_pull

type run = {
  rounds : int;  (** Rounds until every vertex is informed. *)
  messages : int;  (** Messages sent over those rounds. *)
}

val run_cover :
  Cobra_graph.Graph.t -> Cobra_prng.Rng.t -> ?max_rounds:int -> ?pool:Cobra_parallel.Pool.t ->
  protocol:protocol -> start:int -> unit -> run option
(** [run_cover g rng ~protocol ~start ()] spreads the rumor from [start]
    until every vertex is informed, or returns [None] if [max_rounds]
    (default {!Cobra.default_max_rounds}) elapse first.

    @raise Invalid_argument on an empty graph or an out-of-range
    [start]. *)
