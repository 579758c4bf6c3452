(** Fixed-width histograms with a terminal renderer.

    Used by the CLIs to visualise cover-time distributions and BIPS
    infection-size trajectories without leaving the terminal. *)

type t

val create : lo:float -> hi:float -> bins:int -> t
(** The CLIs build histograms with {!of_array} and print them with
    {!render}; [create], {!add} and the readers below are exported for
    the binning tests.
    [create ~lo ~hi ~bins] covers [[lo, hi)] with [bins] equal bins.
    Observations outside the range are tallied separately as
    {!underflow} / {!overflow} — they never distort the edge bins.
    @raise Invalid_argument if [bins < 1] or [hi <= lo]. *)

val of_array : ?bins:int -> float array -> t
(** Histogram spanning the sample range (default 20 bins).
    @raise Invalid_argument on an empty sample. *)

val add : t -> float -> unit

val counts : t -> int array
(** Per-bin counts, ascending bin order; excludes out-of-range
    observations. *)

val underflow : t -> int
(** Observations with [x < lo]. *)

val overflow : t -> int
(** Observations with [x >= hi]. *)

val total : t -> int
(** All observations, including underflow and overflow. *)

val bin_bounds : t -> int -> float * float
(** [bin_bounds t i] is the half-open interval of bin [i]. *)

val render : ?width:int -> t -> string
(** ASCII bar rendering, one line per bin, preceded/followed by an
    underflow/overflow line when those counts are non-zero. *)
