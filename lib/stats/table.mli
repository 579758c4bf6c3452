(** Aligned plain-text tables.

    Every experiment in EXPERIMENTS.md is emitted through this renderer,
    so the harness output is uniform and diff-able. *)

type align = Left | Right

type t

val create : (string * align) list -> t
(** [create columns] starts a table with the given headers. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument if the row width differs from the header. *)

val add_rule : t -> unit
(** Inserts a horizontal rule at this position. *)

val render : t -> string
(** Renders with column padding, a header rule, and [|] separators. *)

val cell_f : float -> string
(** Compact float formatting used across experiment tables: integers
    print without a fraction, small magnitudes keep two decimals. *)

val cell_i : int -> string
(** Integer cell. *)
