(** Vertex subsets of small graphs as bitmask integers.

    The exact solvers enumerate the powerset of the vertex set, so they
    are limited to [n <= max_n] vertices ([max_n = 20]; the practical
    range is n <= 12).  A subset is the int whose bit [u] is vertex
    [u]'s membership. *)

val max_n : int

val check_n : int -> unit
(** @raise Invalid_argument if the vertex count exceeds {!max_n}. *)

val full : int -> int
(** [full n] is the subset containing all of [0 .. n-1]. *)

val check_mask : fn:string -> int -> int -> unit
(** [check_mask ~fn n mask] accepts exactly the subsets of [0 .. n-1].
    @raise Invalid_argument naming [fn] when [mask] is negative or has
    a bit at or above [n]. *)

val mem : int -> int -> bool
(** [mem mask u]. *)

val add : int -> int -> int
(** [add mask u]. *)

val cardinal : int -> int
(** Population count of a non-negative mask. *)

val iter_subsets_of : int -> (int -> unit) -> unit
(** [iter_subsets_of mask f] applies [f] to every subset of [mask],
    including [0] and [mask] itself (2^popcount iterations).  No solver
    calls it (each enumerates with its own loop); it stays as the
    library's submask enumerator, its order pinned by a test. *)

val neighborhood_mask : Cobra_graph.Graph.t -> int -> int
(** [neighborhood_mask g c] is [N(C)] as a mask: all vertices adjacent
    to some member of the subset [c]. *)

val degree_into : Cobra_graph.Graph.t -> int -> int -> int
(** [degree_into g u s] is [|N(u) ∩ S|]. *)

val pp : Format.formatter -> int -> unit
(** Prints as [{0, 3}]: the tests' failure messages. *)
