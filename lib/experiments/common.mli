(** Shared plumbing for the experiment modules. *)

val graph_of : string -> n:int -> seed:int -> Cobra_graph.Graph.t
(** Deterministic instance of a named family at ~[n] vertices. *)

val verdict : bool -> string
(** ["PASS"] / ["FAIL"]. *)

val section : string -> string
(** Sub-section banner within an experiment's output. *)

val ratio : float -> float -> float
(** [ratio measured bound] with [nan] guarded to [nan]. *)
