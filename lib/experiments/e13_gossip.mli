(** E13 (extension) — COBRA against classical rumor spreading (PUSH,
    PUSH–PULL) and the BIPS epidemic: rounds and messages to cover, all
    four on the same keyed round kernels. *)

val experiment : Experiment.t
