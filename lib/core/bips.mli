(** Full executions of the BIPS epidemic process.

    [infec(v)] is the first round at which the infected set equals the
    whole vertex set, for the BIPS process with persistent source [v]
    (Section 1).  Theorems 1.4/1.5 — the paper's technical core — bound
    this time, and the duality (Theorem 1.3) transfers the bounds to
    COBRA cover times.

    Runners take their keyed master from one
    {!Cobra_prng.Rng.keyed_master} draw of [rng] and drive
    {!Rounds.run}; [pool] and [dense_threshold] mean what they mean for
    {!Cobra.run_cover}. *)

type trajectory = {
  rounds : int;  (** Rounds until [A_t = V]. *)
  sizes : int array;
      (** [sizes.(t) = |A_t|]; length [rounds + 1], [sizes.(0) = 1]. *)
  candidate_sizes : int array;
      (** [candidate_sizes.(t) = |C_{t+1}|], the candidate-set size
          entering round [t+1] (definition (6)); length [rounds].
          Corollary 5.2: on r-regular graphs,
          [|C_{t+1}| >= |A_t| (1-lambda)/2] while [|A_t| <= n/2]. *)
}

val run_infection :
  Cobra_graph.Graph.t -> Cobra_prng.Rng.t -> ?branching:Process.branching -> ?lazy_:bool ->
  ?max_rounds:int -> ?pool:Cobra_parallel.Pool.t -> ?dense_threshold:int -> source:int ->
  unit -> int option
(** [run_infection g rng ~source ()] simulates until the whole graph is
    infected and returns [infec(source)], or [None] on hitting the cap.
    Defaults match {!Cobra.run_cover}. *)

val run_trajectory :
  Cobra_graph.Graph.t -> Cobra_prng.Rng.t -> ?branching:Process.branching -> ?lazy_:bool ->
  ?max_rounds:int -> ?pool:Cobra_parallel.Pool.t -> ?dense_threshold:int -> source:int ->
  unit -> trajectory option
(** As {!run_infection}, additionally recording infection and candidate
    set sizes per round (at O(m) extra cost per round for the candidate
    sets). *)

val infected_after :
  Cobra_graph.Graph.t -> Cobra_prng.Rng.t -> ?branching:Process.branching -> ?lazy_:bool ->
  ?pool:Cobra_parallel.Pool.t -> ?dense_threshold:int -> rounds:int -> source:int -> unit ->
  Cobra_bitset.Bitset.t
(** [infected_after g rng ~rounds ~source ()] runs exactly [rounds]
    rounds and returns [A_rounds] — the object on the BIPS side of the
    duality identity. *)
