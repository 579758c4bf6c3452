(** The round-synchronous execution engine.

    [Engine.Make (P)] runs protocol [P] on a graph: it owns the per-vertex
    states, performs the two delivery phases of each round, counts every
    message, and tracks coverage.  Each round takes one
    {!Cobra_prng.Rng.keyed_master} draw of the generator it is given;
    every vertex of every phase then draws from a generator seeded by
    [(master, phase, round, vertex)], so a run is reproducible and does
    not depend on the order vertices are processed in. *)

module Make (P : Protocol.S) : sig
  type t

  val create :
    ?obs:Cobra_obs.Obs.t -> ?pool:Cobra_parallel.Pool.t -> Cobra_graph.Graph.t -> start:int -> t
  (** Fresh network with the information placed at [start].  An enabled
      [obs] (default {!Cobra_obs.Obs.null}) receives a
      [Round_started]/[Round_ended] event pair per executed round; the
      [Round_ended] payload carries the latched informed count, the
      current informed-set size and the messages sent that round.  The
      engine never reads the RNG for observability, so runs are
      bit-identical with it on or off.

      With [pool], the state-update phase (whose vertices are
      independent by the {!Protocol.S} contract) shards over it, with
      results bit-identical for any pool size.
      @raise Invalid_argument on an empty graph or bad start. *)

  val graph : t -> Cobra_graph.Graph.t

  val round : t -> Cobra_prng.Rng.t -> unit
  (** Execute one synchronous round (both phases), taking exactly one
      draw of the generator. *)

  val rounds_elapsed : t -> int

  val messages_sent : t -> int
  (** Total messages across both phases since [create]. *)

  val informed_count : t -> int
  (** Vertices informed {e at least once} (latched — the cover-time
      criterion). *)

  val current_count : t -> int
  (** Vertices whose {e current} state satisfies [P.informed] — for
      SIS-type protocols such as BIPS, where vertices can relapse, this
      is the infected-set size [|A_t|]. *)

  val is_covered : t -> bool
  (** Every vertex informed at least once. *)

  val all_current : t -> bool
  (** Every vertex currently satisfies [P.informed] — the BIPS
      completion criterion [A_t = V]. *)

  val state : t -> int -> P.state
  (** Current state of a vertex. *)

  val run_until_covered : ?max_rounds:int -> t -> Cobra_prng.Rng.t -> int option
  (** Rounds until coverage, or [None] if [max_rounds] (default
      [100 * n + 10_000]) elapses first.  Resumes from the current
      state, so it can be interleaved with manual {!round} calls. *)

  val run_until_all_current : ?max_rounds:int -> t -> Cobra_prng.Rng.t -> int option
  (** Rounds until {!all_current} — the infection time for SIS-type
      protocols. *)
end
