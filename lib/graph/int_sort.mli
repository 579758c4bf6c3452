(** CSR assembly: the one routine that turns an edge list into packed
    int32 CSR storage.  {!Graph.of_edge_array} and {!Builder.finish}
    both call it, so every graph, whatever built it, has identical
    offsets and adjacency for the same multiset of edges. *)

type int32_array = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The CSR storage type: a C-layout bigarray of int32. *)

val assemble_csr :
  who:string -> n:int -> count:int -> int array -> int32_array * int32_array
(** [assemble_csr ~who ~n ~count keys] counting-sorts the first
    [count] entries of [keys], each an undirected edge packed as
    [(u lsl 31) lor v], into [(offsets, adj)]: [offsets] has [n + 1]
    entries, the neighbours of [u] are [adj.{offsets.{u}} ..
    adj.{offsets.{u + 1} - 1}] in increasing order, each edge appears
    in both slices once, and duplicates in either orientation are
    removed.  [adj] has exactly [offsets.{n}] entries — never a view
    into a larger buffer.

    The caller guarantees [0 <= u, v < n] and [u <> v] for every key;
    [who] prefixes the error messages.
    @raise Invalid_argument if [n] or [2 * count] exceeds the int32
    limit [2^31 - 1]; both are checked before any O(n) allocation. *)
