(** Chebyshev evaluation of high powers of a walk operator.

    [x^t] expands in the Chebyshev basis with binomial(t, 1/2)
    coefficients, whose mass concentrates within
    [K ~ sqrt(2 t ln(2/eps))] of degree zero.  Truncating there yields a
    degree-K polynomial uniformly [eps]-close to [x^t] on [[-1, 1]], so
    a distribution after [t] walk steps costs [O(sqrt t)] matvecs
    instead of [t].  This is what lets {!Mixing} probe mixing times on
    million-vertex graphs. *)

val apply_monomial :
  matvec:(float array -> float array -> unit) ->
  t:int ->
  ?eps:float ->
  float array ->
  float array
(** [apply_monomial ~matvec ~t x] evaluates [A^t x] for the symmetric
    (or similar-to-symmetric) operator [matvec : x -> A x] with
    spectrum in [[-1, 1]], to uniform accuracy [eps] (default [1e-12])
    times [||x||_inf]-scale, via the three-term Chebyshev recurrence.
    Falls back to exact step-by-step evolution whenever that is no more
    expensive (truncation degree [>= t]).  Returns a fresh array; [x] is
    not modified. *)
