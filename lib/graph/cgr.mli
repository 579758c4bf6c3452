(** The [.cgr] packed binary graph format.

    A [.cgr] file is the packed int32 CSR representation with a 32-byte
    header (magic ["cobra.gr"], version, [n], [m], all little-endian)
    followed by the offset and adjacency arrays, 4 bytes per entry —
    about [4 + 4 (n + 1) / 2m] bytes per directed adjacency entry on
    disk, and bit-for-bit the in-memory packed layout, which is what
    makes the mmap loader possible.

    Three access paths:
    - {!write} streams a graph (either storage) out in O(1) extra
      memory;
    - {!read_eager} loads into fresh heap bigarrays with full O(n + m)
      structural validation;
    - {!read_mmap} maps the file read-only and returns a graph whose
      CSR pages in on demand — O(1) open time and resident set, the
      only way m ~ 10^9 fits the container.  It performs header, size
      and framing checks but trusts the payload structure, like
      [Graph.unsafe_of_packed_csr].

    Determinism: a graph loaded by either path is observationally
    identical to the graph that was written (same CSR values), so every
    simulation seeded on it produces bit-identical results whether the
    storage is heap-resident, mmap-backed, or the original. *)

exception Bad_file of string
(** Raised by the loaders on a file that is not a well-formed [.cgr]:
    bad magic, unsupported version, counts out of int32 range, or a
    length mismatch (torn/truncated file).  The message names the path
    and the specific defect. *)

val write : string -> Graph.t -> unit
(** [write path g] serialises [g].  Streams through a fixed 64 KiB
    buffer — no second copy of the graph is materialised.
    @raise Failure on a big-endian host. *)

val read_eager : string -> Graph.t
(** [read_eager path] loads the whole file into fresh packed storage
    and validates the CSR structure (offsets monotone and framing,
    adjacency entries in range).
    @raise Bad_file on any malformation. *)

val read_mmap : string -> Graph.t
(** [read_mmap path] returns a graph backed by a private read-only
    mapping of the file: O(1) open, pages fault in on first access.
    Header, exact-length and offset-framing checks still run; the
    payload structure is trusted.  The mapping lives until the graph is
    garbage collected.
    @raise Bad_file on header/size malformation. *)

val read : ?mmap:bool -> string -> Graph.t
(** [read path] is {!read_mmap} (the default) or {!read_eager} when
    [~mmap:false]. *)

val is_cgr_file : string -> bool
(** [is_cgr_file path] sniffs the first 8 bytes for the magic — the
    dispatch test [Graph_io.read_file] uses to route binary graphs
    here while text edge lists keep streaming through the builder. *)
