(** Exact absorption analysis of the source-free SIS chain.

    Without the persistent source, the BIPS refresh dynamic is a Markov
    chain on all [2^n] vertex subsets with two absorbing states: the
    empty set (extinction) and the full set (saturation).  The kernel
    still factorises over vertices, so the transition matrix is built
    exactly as in {!Bips_chain}, and first-step analysis gives both the
    absorption probabilities and the expected absorption time from any
    initial set — the ground truth for experiment E15 and for
    {!Cobra_core.Sis}. *)

type t

val make :
  Cobra_graph.Graph.t -> ?branching:Cobra_core.Process.branching -> ?lazy_:bool -> unit -> t
(** Precomputes the [2^n x 2^n] kernel.  Requires [Graph.n g <= 10].
    @raise Invalid_argument above the cap or on the empty graph. *)

val saturation_probability : t -> initial:int -> float
(** Probability that the chain started from the subset mask [initial]
    is absorbed at the full set (rather than the empty one).  Solved by
    Gaussian elimination over the transient states.  The first query of
    this or {!expected_absorption_time} solves both tables in one
    elimination and caches them; later queries are lookups.

    On bipartite graphs the {e plain} chain does not absorb almost
    surely: a parity class maps deterministically to the opposite class,
    an orbit that never reaches either absorbing state, so the linear
    system is singular and this raises [Failure].  The lazy variant
    breaks the parity and always absorbs. *)

val expected_absorption_time : t -> initial:int -> float
(** Expected rounds until either absorbing state is reached.  Shares
    the elimination of {!saturation_probability}, and raises [Failure]
    on the same singular systems. *)

val transition_probability : t -> int -> int -> float
(** Kernel entry between two subset masks; the reference the
    conformance tests hold one keyed SIS round to. *)
