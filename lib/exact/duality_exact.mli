(** Machine-precision verification of the duality theorem.

    Theorem 1.3 is an exact identity between two probabilities.  The
    Monte-Carlo check ({!Cobra_core.Duality}) verifies it to sampling
    precision on any graph; this module verifies it to floating-point
    precision on small graphs by computing both sides exactly:
    the COBRA side from the subset-chain evolution
    ({!Cobra_chain.hit_tail}) and the BIPS side from the factorised
    transition matrix ({!Bips_chain.avoid_tail}).

    A non-zero gap here (beyond accumulated rounding, ~1e-10) would
    falsify either the theorem or the process implementations — it is
    the sharpest single test in the repository, and it exercises the
    very same step semantics the Monte-Carlo engines use, re-derived
    through two independent exact formulations. *)

type report = {
  horizon : int;
  cobra_tail : float array;  (** [P(Hit(v) > t)], [t = 0 .. horizon]. *)
  bips_tail : float array;  (** [P(C ∩ A_t = ∅)], [t = 0 .. horizon]. *)
  max_gap : float;  (** [max_t |difference|]. *)
}

val check :
  Cobra_graph.Graph.t -> ?branching:Cobra_core.Process.branching -> ?lazy_:bool ->
  c0:int -> v:int -> horizon:int -> unit -> report
(** [check g ~c0 ~v ~horizon ()] computes both sides for every
    [t <= horizon].  [c0] is the COBRA start set (a bitmask), [v] the
    target / BIPS source.  Requires [Graph.n g <= 12].

    @raise Invalid_argument on an empty [c0], a [c0] with vertices
    outside [\[0, n)], or a bad [v]. *)
