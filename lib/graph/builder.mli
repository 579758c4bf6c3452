(** Incremental CSR graph construction by counting sort.

    The builder accepts edges one at a time — from a generator loop or a
    streaming parser — and assembles the same simple undirected
    {!Graph.t} that {!Graph.of_edge_array} would produce from the same
    multiset of edges (both call {!Int_sort.assemble_csr}), without ever
    materialising a tuple list.  Peak memory while {!finish} runs is
    about 2 words per added edge (one packed word in the edge buffer
    plus the two int32 adjacency entries), which is what makes
    10^7+-vertex ingestion feasible.

    Two sizing modes:
    - [create ~n ()] fixes the vertex set to [0 .. n-1]; out-of-range
      endpoints raise, exactly like [of_edges ~n].
    - [create ()] grows the vertex set to [1 + max endpoint seen] — the
      mode the SNAP ingester uses when the input carries no header.

    Vertex ids must be below [2^31] (edges are packed two-per-word), and
    the finished graph's [n] and [2 m] below [2^31 - 1] (int32 CSR). *)

type t

val create : ?n:int -> ?edges_hint:int -> unit -> t
(** [create ?n ?edges_hint ()] is an empty builder.  With [~n] the
    vertex count is fixed and endpoints are range-checked; without it
    the vertex count is the largest endpoint seen plus one.
    [edges_hint] pre-sizes the edge buffer (it grows by doubling
    regardless, so the hint only avoids early reallocations).
    @raise Invalid_argument on negative [n] or [n > 2^31 - 1]. *)

val add_edge : t -> int -> int -> unit
(** [add_edge b u v] records the undirected edge [(u, v)].  Duplicates
    (in either orientation) are accepted and removed by {!finish}.
    @raise Invalid_argument on a self-loop, a negative or [>= 2^31]
    endpoint, an out-of-range endpoint in fixed-[n] mode, or a builder
    that has already been finished. *)

val finish : t -> Graph.t
(** [finish b] counting-sorts the buffered edges into a CSR graph and
    consumes the builder.  The CSR values are identical (same offsets
    and adjacency sequences) to [Graph.of_edge_array] over the same
    edges; the adjacency is scattered and slice-sorted directly in the
    int32 bigarray, so no boxed copy of it ever exists.
    @raise Invalid_argument if called twice, or if the vertex count or
    twice the number of added edges exceeds [2^31 - 1] (checked before
    any O(n) allocation). *)
