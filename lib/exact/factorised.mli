(** The factorised one-round law shared by {!Bips_chain} and
    {!Sis_chain}: given the infected set [A], each vertex joins [A']
    independently (it samples its own neighbours), so a transition is a
    product of per-vertex terms.  Private to the library. *)

val kernel :
  Cobra_graph.Graph.t -> Cobra_core.Process.branching -> bool -> skip:int -> states:int ->
  mask_of:(int -> int) -> float array array
(** [kernel g branching lazy_ ~skip ~states ~mask_of] is the
    [states x states] matrix whose entry [(i, j)] is
    [P(A' = mask_of j | A = mask_of i)], the product over the vertices
    [u <> skip], in increasing order, of [p_u(A)] when [u] is in [A']
    and [1 - p_u(A)] when it is not.  [p_u(A)] is the chance that one of
    [u]'s picks lands in [A]: [1 - (1 - a)^b] at [Fixed b] and
    [1 - (1 - a)(1 - rho a)] at [Bernoulli rho], for [a] the fraction
    of [u]'s neighbours in [A] (averaged with [u]'s own membership when
    [lazy_]); 0 at degree 0.  [skip] outside [0 .. n-1] skips no
    vertex. *)
