(** Immutable undirected graphs in compressed sparse row (CSR) form.

    A graph over vertices [0 .. n-1] stores, for each vertex, a sorted
    slice of its neighbour array.  This is the layout the COBRA/BIPS inner
    loops want: choosing a uniform neighbour of [u] is one bounded random
    index into a contiguous slice.

    Graphs are simple (no self-loops, no parallel edges) and undirected:
    every edge [(u, v)] appears in both adjacency slices.  Construction
    deduplicates and validates.

    The CSR arrays are C-layout int32 bigarrays: 4 bytes per entry, and
    mmap-able from a {!Cgr} file.  Every constructor goes through
    {!Int_sort.assemble_csr} or {!Cgr.read_mmap}, so for every graph
    [n] and [2 m] are below [2^31], the offsets rise from [0] to [2 m],
    and every adjacency entry lies in [\[0, n)]. *)

type t

type int32_array = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The CSR storage type. *)

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds the graph with vertex set [0 .. n-1] and
    the given undirected edges.  Edge direction and duplicates are
    ignored; self-loops raise.

    No program calls it or {!of_edge_array}: every generator, parser and
    extraction adds its edges to a {!Builder}, which allocates no tuple
    per edge.  The two stay for the tests, which write small graphs as
    edge lists, and for the bench ledger's [of_edge_array] row.

    @raise Invalid_argument on [n < 0], endpoints out of range, a
    self-loop, or [n] or twice the edge count above [2^31 - 1]. *)

val of_edge_array : n:int -> (int * int) array -> t
(** Array analogue of {!of_edges}. *)

val unsafe_of_packed_csr :
  n:int -> m:int -> offsets:int32_array -> adj:int32_array -> t
(** [unsafe_of_packed_csr ~n ~m ~offsets ~adj] wraps pre-built CSR
    arrays (possibly mmap-backed) without structural validation — the
    constructor behind {!Builder.finish} and {!Cgr.read_mmap}.  Only the
    lengths and [offsets.{n} = 2 m] are checked here.  The caller must
    guarantee the range invariant: [offsets] rises from [0] to [2 m]
    and every entry of [adj] lies in [\[0, n)].  The kernels, the search
    and the matvec index by these values without bounds checks, so a
    CSR that breaks it reads or writes out of bounds: the builders meet
    it by construction and {!Cgr.read_mmap} checks it when it opens a
    file.  The caller must also guarantee that every slice is sorted
    and duplicate-free, that no slice lists its own vertex, and that
    edges are symmetric; results are wrong without these, but no access
    goes out of bounds.  {!Cgr.read_mmap} checks the slices too, but
    trusts symmetry: checking it would look up every entry's reverse
    edge, several times the cost of the rest of the check.
    @raise Invalid_argument on inconsistent dimensions. *)

val storage_bytes : t -> int
(** Bytes held by the CSR arrays: [4 (n + 1 + 2 m)].  Divide by
    [2 * m] for bytes per directed adjacency entry — the number the
    ingest bench rows report. *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of (undirected) edges. *)

val degree : t -> int -> int
(** [degree g u] is the number of neighbours of [u]. *)

val max_degree : t -> int
(** Largest vertex degree; 0 for the empty graph. *)

val min_degree : t -> int
(** Smallest vertex degree; 0 for the empty graph. *)

val is_regular : t -> bool
(** [true] iff all degrees are equal (vacuously true for [n <= 1]). *)

val neighbor : t -> int -> int -> int
(** [neighbor g u i] is the [i]-th neighbour of [u] (in increasing vertex
    order), [0 <= i < degree g u].  Unsafe index checks are on: raises
    on out-of-range [i].  This, {!neighbors} and {!mem_edge} are the
    adjacency readers the tests check structure with; the kernels scan
    the CSR. *)

val random_neighbor : t -> Cobra_prng.Rng.t -> int -> int
(** [random_neighbor g rng u] is a uniformly random neighbour of [u].
    @raise Invalid_argument if [u] is isolated. *)

val unsafe_neighbor : t -> int -> int -> int
(** [neighbor] without the vertex-range and index checks, for inner
    loops whose indices are in [0, degree u) by construction.
    Out-of-range arguments are undefined behaviour. *)

val unsafe_degree : t -> int -> int
(** [degree] without the vertex-range check — the companion of
    {!unsafe_neighbor} for loops over vertices in range by construction
    (the bench ledger's CSR scan row; the step kernels in
    [Cobra_core.Process] read {!csr_offsets} themselves).
    Out-of-range [u] is undefined behaviour. *)

val neighbors : t -> int -> int array
(** Fresh array of the neighbours of [u], increasing order. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** [iter_neighbors g u f] applies [f] to each neighbour of [u]. *)

val fold_neighbors : t -> int -> ('a -> int -> 'a) -> 'a -> 'a
(** Fold over neighbours of [u] in increasing order. *)

val mem_edge : t -> int -> int -> bool
(** [mem_edge g u v] tests adjacency by binary search: O(log degree). *)

val edges : t -> (int * int) list
(** All edges as pairs [(u, v)] with [u < v], lexicographic order. *)

val iter_edges : t -> (int -> int -> unit) -> unit
(** [iter_edges g f] applies [f u v] once per edge, with [u < v]. *)

val total_degree : t -> int
(** [total_degree g = 2 * m g]. *)

val csr_offsets : t -> int32_array
(** The CSR offset array ([n + 1] entries): the graph's own storage,
    shared and not to be mutated.  The neighbours of [u] are
    [adj.{offsets.{u}} .. adj.{offsets.{u + 1} - 1}], so flat kernels
    (blocked matvec, CG solvers, the {!Cgr} writer) stream rows without
    per-edge closure calls. *)

val csr_adjacency : t -> int32_array
(** The CSR adjacency array ([2 m] entries, each slice sorted): shared
    storage, not to be mutated. *)

type csr =
  | Csr_boxed of { offsets : int array; adj : int array }
  | Csr_packed of { offsets : int32_array; adj : int32_array }
      (** The raw CSR arrays.  The int-array constructor is never
          produced; the type keeps both constructors only so code
          written against the former two-storage view still compiles. *)

val csr : t -> csr
(** [Csr_packed] over {!csr_offsets} and {!csr_adjacency}.  New code
    should call those directly. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: n, m, degree range. *)
