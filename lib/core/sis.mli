(** The source-free SIS epidemic — BIPS without its persistent source.

    Section 1 of the paper motivates BIPS as an SIS-type epidemic whose
    persistent source guarantees that "all vertices of the underlying
    graph eventually become infected".  Dropping the source makes the
    chain bistable: both the all-susceptible and the all-infected states
    are absorbing, and a single initial infection either dies out or
    saturates.  This module runs that chain; experiment E15 measures the
    two absorption probabilities and contrasts them with BIPS's certain
    saturation, and {!Cobra_exact.Sis_chain} computes them exactly on
    small graphs. *)

type outcome =
  | Extinct of int  (** All-susceptible reached at this round. *)
  | Saturated of int  (** All-infected reached at this round. *)
  | Censored  (** Neither absorbing state within the round cap. *)

val run :
  Cobra_graph.Graph.t -> Cobra_prng.Rng.t -> ?branching:Process.branching -> ?lazy_:bool ->
  ?max_rounds:int -> ?pool:Cobra_parallel.Pool.t -> ?dense_threshold:int ->
  initial:Cobra_bitset.Bitset.t -> unit -> outcome
(** [run g rng ~initial ()] simulates until absorption.  Defaults, the
    keyed master drawn from [rng], and the meaning of [pool] /
    [dense_threshold] match {!Bips.run_infection}; [initial] is copied,
    not mutated.

    @raise Invalid_argument if [initial]'s capacity mismatches the
    graph. *)

val run_trajectory :
  Cobra_graph.Graph.t -> Cobra_prng.Rng.t -> ?branching:Process.branching -> ?lazy_:bool ->
  ?max_rounds:int -> ?pool:Cobra_parallel.Pool.t -> ?dense_threshold:int ->
  initial:Cobra_bitset.Bitset.t -> unit -> outcome * int array
(** As {!run}, also returning the infected-count trajectory (entry 0 is
    the initial size).  The tests read the trajectory; programs call
    {!run}. *)
