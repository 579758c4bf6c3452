(** The [.cgr] packed binary graph format.

    A [.cgr] file is the packed int32 CSR representation with a 32-byte
    header (magic ["cobra.gr"], version, [n], [m], all little-endian)
    followed by the offset and adjacency arrays, 4 bytes per entry —
    about [4 + 4 (n + 1) / 2m] bytes per directed adjacency entry on
    disk, and bit-for-bit the in-memory packed layout, which is what
    lets the loader map the file instead of copying it.

    One loader and one trust rule: {!read_mmap} checks a file once, in
    one sequential pass when it is opened, and every reader trusts the
    graph after that.  A file that passes meets the same CSR range
    invariant as every graph the builders assemble (offsets rise from 0
    to [2m], every adjacency entry lies in [\[0, n)]), so no kernel,
    search or matvec can read or write out of bounds on it; and every
    slice is sorted, duplicate-free and free of its own vertex, as
    every built slice is.  Symmetry (each edge listed in both slices)
    is trusted, not checked: a pass that looks each entry's reverse
    edge up costs several times the whole check, and a file that breaks
    it gives wrong answers but no out-of-bounds access.

    Determinism: a loaded graph is observationally identical to the
    graph that was written (same CSR values), so every simulation seeded
    on it produces bit-identical results whether the storage is
    mmap-backed or the original. *)

exception Bad_file of string
(** Raised by {!read_mmap} on a file that is not a well-formed [.cgr]:
    bad magic, unsupported version, counts out of int32 range, a length
    mismatch (torn/truncated file), offsets that do not rise from 0 to
    [2m], an adjacency entry outside [\[0, n)], or a slice that does not
    rise strictly or lists its own vertex.  The message names the path
    and the specific defect: the vertex whose offsets decrease, or the
    vertex, the adjacency slot and its value. *)

val write : string -> Graph.t -> unit
(** [write path g] serialises [g].  Streams through a fixed 64 KiB
    buffer — no second copy of the graph is materialised.
    @raise Failure on a big-endian host. *)

val read_mmap : string -> Graph.t
(** [read_mmap path] returns a graph backed by a private read-only
    mapping of the file.  It checks the header and the exact length,
    then makes one sequential pass over the payload: [offsets.{0} = 0],
    the offsets never decrease, [offsets.{n} = 2m], and each vertex's
    slice rises strictly inside [\[0, n)] without the vertex itself.
    The pass touches every page once (tens of milliseconds at
    [m = 8 * 10^6]); the mapping lives until the graph is garbage
    collected.
    @raise Bad_file on any malformation. *)

val is_cgr_file : string -> bool
(** [is_cgr_file path] sniffs the first 8 bytes for the magic — the
    dispatch test [Graph_io.read_file] uses to route binary graphs
    here while text edge lists keep streaming through the builder. *)
