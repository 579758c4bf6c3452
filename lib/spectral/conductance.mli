(** Graph conductance [phi(G)].

    For a vertex set [S] with volume [vol(S) = sum of degrees] and cut
    [cut(S)] edges leaving [S],
    [phi(S) = cut(S) / min(vol(S), vol(V \ S))] and
    [phi(G) = min over proper non-empty S of phi(S)].

    Mitzenmacher et al. (SPAA'16) bound the COBRA cover time by
    [O((r^4 / phi^2) log^2 n)]; this paper's improvement for regular
    graphs is compared against it through Cheeger's inequality
    [1 - lambda >= phi^2 / 2].

    Exact conductance is NP-hard in general, so we provide exact
    enumeration for small graphs plus a sweep-cut {e upper} bound from
    the second eigenvector for larger ones (the Cheeger-rounding
    certificate, good enough to compare bound formulas):
    [sweep_of_vector g (Eigen.spectrum g).vec2]. *)

val of_set : Cobra_graph.Graph.t -> Cobra_bitset.Bitset.t -> float
(** [of_set g s] is [phi(S)]: the quantity the sweep and exact
    minimisations optimise, exported for their tests.
    @raise Invalid_argument if [S] is empty or the whole vertex set. *)

val exact : Cobra_graph.Graph.t -> float
(** Exact [phi(G)] by Gray-code enumeration of all vertex subsets.
    O(2^n); restricted to [n <= 24].
    @raise Invalid_argument if [Graph.n g > 24] or [n < 2]. *)

val sweep_of_vector : Cobra_graph.Graph.t -> float array -> float
(** [sweep_of_vector g v] is the minimum conductance over the [n - 1]
    prefix cuts of the vertices ordered by [v] — the sweep-cut rounding
    of any embedding vector.  With [v] the second eigenvector of [P]
    ({!Eigen.spectrum}'s [vec2]) it is an upper bound on [phi(G)], tight
    up to Cheeger's quadratic loss.
    @raise Invalid_argument on [n < 2] or a length mismatch. *)
