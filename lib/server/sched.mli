(** A fair FIFO-per-client job scheduler with bounded admission.

    Each client gets its own FIFO; service rotates round-robin over
    clients that have work, so a client streaming hundreds of jobs
    cannot starve one submitting a single query — the single query
    waits behind at most one job per busy client, not behind the whole
    backlog.

    Admission is bounded twice: [per_client] caps any one FIFO and
    [global] caps the sum.  {!enqueue} refuses ([`Overloaded]) instead
    of growing without bound; the server turns that refusal into the
    typed [overloaded] backpressure response.

    Not thread-safe — callers serialise access (the server guards it
    with the state mutex shared with the executor). *)

type 'a t

val create : ?per_client:int -> ?global:int -> unit -> 'a t
(** Defaults: [per_client = 64], [global = 1024].
    @raise Invalid_argument unless [1 <= per_client <= global]. *)

val enqueue : 'a t -> client:int -> 'a -> [ `Accepted | `Overloaded ]

val dequeue : 'a t -> (int * 'a) option
(** The next job in round-robin order, with its client; [None] when
    idle.  A client with more work goes to the back of the rotation. *)

val drop_client : 'a t -> int -> 'a list
(** Remove and return all jobs queued by a client (oldest first) — used
    when the client disconnects. *)

val queued : 'a t -> int
val queued_for : 'a t -> client:int -> int
(** Jobs queued for [client]: the per-client bound's count, exported
    for the backpressure tests. *)
