(** All experiments, in paper order. *)

val all : Experiment.t list

val select : string list -> (Experiment.t list, string) result
(** Resolve a CLI id list: [["all"]] selects every experiment, ids
    ("e1" .. "e16") match case-insensitively, and unknown ids produce a
    human-readable error.  Shared by the experiments CLI
    and the bench harness. *)
