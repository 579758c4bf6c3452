(** A counted LRU map from cache-key digests to results.

    Capacity is a number of entries; insertion beyond it evicts the
    least-recently-used entry.  [find] refreshes recency and counts a
    hit or miss, so the server's [stats] endpoint reports cache
    effectiveness without instrumentation at the call sites.  Not
    thread-safe — the serve loop owns it. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity < 1]. *)

val find : 'a t -> string -> 'a option
(** Bumps the entry to most-recently-used; counts a hit or a miss. *)

val mem : 'a t -> string -> bool
(** No recency or counter effect: what the tests read entries with
    without moving the hit counters. *)

val add : 'a t -> string -> 'a -> unit
(** Insert or overwrite; either way the key becomes most-recently-used.
    May evict the LRU entry. *)

val length : 'a t -> int
val capacity : 'a t -> int
val hits : 'a t -> int
val misses : 'a t -> int
val evictions : 'a t -> int
