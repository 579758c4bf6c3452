(** Further graph constructions: products and random graph models.

    These extend the core families of {!Gen} with the structured and
    heavy-tailed instances used by the extension experiments and the
    wider multiple-walk literature the paper cites: Cartesian products
    (grids, tori and hypercubes are all products — the generic
    construction lets tests cross-validate the specialised generators),
    cycle-plus-random-perfect-matching (a classical 3-regular expander),
    Watts–Strogatz small worlds, Barabási–Albert preferential
    attachment, cube-connected cycles (the constant-degree hypercube
    derivative), and two tree shapes with extreme degree/diameter
    trade-offs (caterpillar, broom). *)

val cartesian_product : Graph.t -> Graph.t -> Graph.t
(** No family is built from it; the tests build products of regular
    graphs with it.  [cartesian_product g h] has vertex set pairs
    [(u, v)] encoded as
    [u * n_h + v]; [(u1,v1) ~ (u2,v2)] iff ([u1 = u2] and [v1 ~ v2]) or
    ([v1 = v2] and [u1 ~ u2]).  [P2 x P2 = C4], [Pk x Pl] = grid,
    [Q_d x K2 = Q_{d+1}].
    @raise Invalid_argument if either factor is empty. *)

val cycle_plus_matching : n:int -> Cobra_prng.Rng.t -> Graph.t
(** [cycle_plus_matching ~n rng] is a cycle C{_n} plus a uniformly random
    perfect matching on its vertices — 3-regular and an expander w.h.p.
    Requires even [n >= 6].  Matchings that would duplicate a cycle edge
    or pair a vertex with itself are resampled (pair by pair). *)

val watts_strogatz : n:int -> k:int -> beta:float -> Cobra_prng.Rng.t -> Graph.t
(** [watts_strogatz ~n ~k ~beta rng]: ring lattice where each vertex is
    joined to its [k/2] nearest neighbours per side, then each edge is
    rewired to a uniform random endpoint with probability [beta].  A
    candidate that would create a self-loop or duplicate an existing
    edge is re-drawn (up to 32 times) rather than cancelling the
    rewire, so the rewired fraction tracks [beta] as in the standard
    model; if every draw in the budget collides the lattice edge is
    kept — a residual bias towards the ring that is negligible for
    [k << n].  Edge count is always exactly [n * k / 2].
    @raise Invalid_argument unless [k] is even, [2 <= k < n], and
    [beta] is in [[0, 1]]. *)

val barabasi_albert : n:int -> m:int -> Cobra_prng.Rng.t -> Graph.t
(** [barabasi_albert ~n ~m rng]: preferential attachment; starts from a
    clique on [m + 1] vertices, then each new vertex attaches to
    exactly [m] distinct existing vertices chosen proportionally to
    degree (collision draws are retried, never dropped), giving
    [m(m+1)/2 + m(n-m-1)] edges in total.  Runs in expected O(n·m) via
    an amortised growable endpoint array, so [n] in the hundreds of
    thousands builds in seconds.  Produces a connected heavy-tailed
    graph with tail exponent 3.
    @raise Invalid_argument unless [1 <= m < n] (the one genuinely
    impossible prescription — every later vertex sees at least [m + 1]
    distinct attachment candidates). *)

val cube_connected_cycles : int -> Graph.t
(** [cube_connected_cycles d] is CCC(d): each hypercube vertex is blown
    up into a [d]-cycle whose [i]-th node also joins dimension-[i]
    neighbours — 3-regular, [d * 2^d] vertices (for [d >= 3]).
    @raise Invalid_argument if [d < 3] or [d > 20]. *)

val caterpillar : spine:int -> legs:int -> Graph.t
(** [caterpillar ~spine ~legs]: a path of [spine] vertices, each
    carrying [legs] pendant leaves; [spine * (1 + legs)] vertices. *)

val broom : handle:int -> bristles:int -> Graph.t
(** [broom ~handle ~bristles]: a path of [handle] vertices whose last
    vertex holds [bristles] pendant leaves — the classic example where
    the worst-case start (far end of the handle) meets a coupon-collector
    finish. *)
