(** A minimal JSON tree, serializer and parser.

    The switch has no JSON library, and the observability sinks only
    need flat-ish documents (manifests, metric snapshots, one event per
    JSONL line), so this module implements exactly the subset we emit:
    the full JSON value grammar, deterministic serialization, and a
    strict recursive-descent parser used by the tests to round-trip what
    the sinks wrote.

    Numbers keep the int/float distinction: a serialized [Float] always
    carries a ['.'] or an exponent, so [of_string (to_string v)]
    reconstructs [v] exactly (floats are printed with 17 significant
    digits).  Non-finite floats have no JSON representation and are
    serialized as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering — one call per JSONL record. *)

val to_string_pretty : t -> string
(** Two-space-indented rendering for [manifest.json] / [metrics.json]. *)

val of_string : string -> (t, string) result
(** Strict parse of a complete document; the error carries a byte
    offset.  Strings must escape control characters (U+0000–U+001F) as
    RFC 8259 requires — a raw one in the input is a parse error, never
    silently accepted (the serializer always escapes them, so
    everything {!to_string} emits round-trips). *)

val of_string_exn : string -> t
(** {!of_string} for the tests, which parse what they just wrote.
    @raise Failure on a parse error. *)

val member : t -> string -> t option
(** Field lookup in an [Obj]; [None] on other constructors. *)

val to_int_opt : t -> int option
val to_float_opt : t -> float option
(** [Int] values coerce; [Null] reads back as [nan] (see serialization
    of non-finite floats above). *)

val to_string_opt : t -> string option
val to_bool_opt : t -> bool option
