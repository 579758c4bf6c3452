(** Exact analysis of the BIPS epidemic on small graphs.

    Given [A_t], the memberships of [A_{t+1}] are {e independent} across
    vertices (each vertex samples its own neighbours), so the transition
    kernel factorises:

    [P(A_{t+1} = A' | A_t = A) = ∏_{u ≠ v} p_u(A)^{[u ∈ A']} (1 - p_u(A))^{[u ∉ A']}]

    over subsets [A'] containing the source [v], where
    [p_u(A) = 1 - (1 - a)(1 - rho a)] (or [1 - (1-a)^b]) and
    [a = d_A(u)/d(u)] (plus the lazy self-term).  This module builds the
    dense transition matrix over the [2^(n-1)] states, and derives exact
    evolution, avoidance tails (the BIPS side of Theorem 1.3) and the
    expected infection time by a direct linear solve. *)

type t
(** A prepared chain: graph, source, variant, and the dense transition
    matrix over subsets containing the source. *)

val make :
  Cobra_graph.Graph.t -> ?branching:Cobra_core.Process.branching -> ?lazy_:bool ->
  source:int -> unit -> t
(** [make g ~source ()] precomputes the transition matrix.  Requires
    [Graph.n g <= 12] (the matrix has 4^(n-1) entries).

    @raise Invalid_argument on a bad source or oversized graph. *)

val n_states : t -> int
(** [2^(n-1)].  The state indexing ({!n_states}, {!mask_of_state},
    {!state_of_mask}), {!transition_probability} and
    {!distribution_after} are the exact references the conformance tests
    hold one keyed BIPS round and the simulator to. *)

val transition_probability : t -> int -> int -> float
(** [transition_probability t a a'] for subset masks [a], [a'] (both
    must contain the source).
    @raise Invalid_argument otherwise. *)

val distribution_after : t -> rounds:int -> float array
(** [distribution_after t ~rounds] is the distribution of [A_rounds]
    started from [A_0 = {source}], indexed by compressed state (use
    {!mask_of_state}). *)

val mask_of_state : t -> int -> int
(** Vertex mask of compressed state index [i]. *)

val state_of_mask : t -> int -> int
(** Inverse of {!mask_of_state}.
    @raise Invalid_argument if the mask does not contain the source. *)

val avoid_tail : t -> c:int -> horizon:int -> float array
(** [avoid_tail t ~c ~horizon] is the exact [t -> P(C ∩ A_t = ∅)] for
    [t = 0 .. horizon] — the BIPS side of the duality identity.
    @raise Invalid_argument on an empty [c] or one with vertices
    outside [\[0, n)]. *)

val expected_infection_time : t -> float
(** [E(infec(source))]: expected rounds until [A_t = V], by solving the
    absorbing-chain linear system exactly (Gaussian elimination).
    Requires [Graph.n g <= 10].

    @raise Invalid_argument above the size cap, [Failure] if the system
    is singular (disconnected graph). *)
