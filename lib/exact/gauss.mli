(** The first-step linear solve shared by the absorbing-chain analyses
    ({!Bips_chain}, {!Sis_chain}). *)

val solve_transient :
  float array array -> transient:int array -> rhs:(int -> float) array -> singular:string ->
  float array array
(** [solve_transient p ~transient ~rhs ~singular] solves
    [(I - Q) x = b] for every right-hand side [b] in [rhs], where [Q] is
    the transition matrix [p] restricted to the states listed in
    [transient] and [b.(j) = rhs.(i) transient.(j)].  Result [i] is the
    solution for [rhs.(i)], indexed like [transient].

    One Gaussian elimination with partial pivoting carries every
    right-hand side: the pivots depend on [I - Q] alone, so each
    solution is bit-identical to a solve of its system on its own.

    @raise Failure [singular] when a pivot falls below 1e-14. *)
