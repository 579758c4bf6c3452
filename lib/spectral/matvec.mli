(** Sparse matrix–vector products for walk matrices derived from a graph.

    For a graph [G] with adjacency matrix [A] and degree matrix [D]:
    - the transition matrix is [P = D^{-1} A];
    - the symmetric normalisation is [N = D^{-1/2} A D^{-1/2}];
    - the distribution evolution operator is [P^T = A D^{-1}].

    [P] and [N] are similar ([N = D^{1/2} P D^{-1/2}]), hence share all
    eigenvalues; the paper's [lambda] is the second largest absolute
    eigenvalue of [P].  The eigensolvers iterate with the symmetric [N].

    Solvers apply these operators thousands of times, so the hot path is
    a precompiled {!op}: degree scalings are computed once, the inner
    loop is a pure gather over the graph's raw CSR arrays, and rows are
    processed in cache-sized blocks that a pool may schedule freely —
    a row is never split, so each output entry is accumulated in
    neighbour order and the product is bit-identical for any pool
    width. *)

type op
(** A precompiled operator: CSR structure plus degree scalings plus a
    private scratch vector.  Build once per solve; do not [apply] the
    same op from two domains concurrently (the scratch is shared). *)

val transition_op : Cobra_graph.Graph.t -> op
(** The operator [x -> P x].  Isolated vertices map to 0.  The
    transpose of {!distribution_op}, exported for the operator tests. *)

val normalized_op : Cobra_graph.Graph.t -> op
(** The operator [x -> N x]. *)

val distribution_op : Cobra_graph.Graph.t -> op
(** The operator [x -> P^T x], i.e. one step of distribution evolution:
    [(P^T x)(v) = sum over u in N(v) of x(u) / d(u)]. *)

val apply : ?pool:Cobra_parallel.Pool.t -> op -> float array -> float array -> unit
(** [apply op x y] writes the operator applied to [x] into [y]
    ([x == y] is not supported).  With [pool] the cache blocks are
    claimed chunk-by-chunk over its domains; products below a size
    threshold stay serial (scheduling-only routing — the result is
    bit-identical either way).
    @raise Invalid_argument on length mismatch. *)

val stationary_direction : Cobra_graph.Graph.t -> float array
(** Unit vector proportional to [sqrt(degree)] — the principal
    eigenvector of [N] (eigenvalue 1 on connected graphs). *)

val dot : ?pool:Cobra_parallel.Pool.t -> float array -> float array -> float
(** Euclidean inner product.  Long vectors are reduced in fixed-size
    chunks whose partials combine in index order, so the result is
    bit-identical with or without a pool, at any width. *)

val norm2 : ?pool:Cobra_parallel.Pool.t -> float array -> float
(** Euclidean norm. *)

val axpy : ?pool:Cobra_parallel.Pool.t -> alpha:float -> float array -> float array -> unit
(** [axpy ~alpha x y] performs [y := y + alpha * x]. *)

val scale_to_unit : ?pool:Cobra_parallel.Pool.t -> float array -> unit
(** Normalise in place to unit Euclidean norm (no-op on the zero vector). *)
