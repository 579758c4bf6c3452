(** Plain-text serialisation and streaming ingestion of graphs.

    The native edge-list format is line-oriented:
    {v
    # optional comments
    cobra-graph <n>
    <u> <v>
    ...
    v}
    One edge per line, whitespace separated.  The vertex count and the
    endpoints are plain decimal digits: no sign on the count, no [0x],
    [_] or [+].  Parsers accept edges in either orientation, ignore
    blank and [#] lines, and tolerate CRLF.

    {!read_channel} parses the native format by streaming fixed-size
    chunks through an incremental {!Builder}: it never materialises the
    file, so it works on pipes and fits inputs larger than memory.
    {!read_stream} is the header-less SNAP-style variant for real-world
    edge lists. *)

val to_string : Graph.t -> string
(** Serialise in the edge-list format, edges in canonical order. *)

val to_snap : ?comment:string -> Graph.t -> string
(** Serialise as a header-less SNAP-style edge list: an optional
    leading [# comment], a [# Nodes: n Edges: m] summary comment, then
    one tab-separated edge per line.  Note the format has no explicit
    vertex count: trailing isolated vertices do not survive a
    {!read_stream} round-trip. *)

val read_channel : in_channel -> Graph.t
(** [read_channel ic] parses the native edge-list format incrementally
    from any channel — regular file, pipe, or socket — in fixed 64 KiB
    chunks, feeding a {!Builder} sized by the header.
    @raise Failure on malformed input (bad header, non-integer tokens,
    out-of-range endpoints, self-loops). *)

type ingest_stats = {
  edge_lines : int;  (** data lines parsed (before dedup/drops) *)
  comments : int;  (** [#] lines skipped *)
  self_loops : int;  (** self-loop edges dropped *)
  remapped_ids : int;  (** distinct ids assigned (0 unless [remap]) *)
}

val read_stream :
  ?remap:bool -> ?drop_self_loops:bool -> in_channel -> Graph.t
(** [read_stream ic] ingests a header-less SNAP-style edge list
    ([u <tab/space> v] per line, [#] comments, CRLF tolerated) from any
    channel, streaming in chunks.  The vertex count is [1 + max id]
    unless [remap] is set, in which case raw ids (which may be sparse
    or non-contiguous) are renumbered densely in first-seen order of
    accepted edges.  [drop_self_loops] (default [true]) silently drops
    [u u] lines — real-world edge lists contain them but {!Graph.t}
    does not admit them; with [~drop_self_loops:false] they raise.
    Duplicate edges are always merged.
    @raise Failure on malformed lines, negative ids without [remap],
    or a self-loop when [drop_self_loops] is [false]. *)

val read_stream_stats :
  ?remap:bool -> ?drop_self_loops:bool -> in_channel -> Graph.t * ingest_stats
(** {!read_stream} plus ingestion accounting, for CLI reporting. *)

val to_dot : ?name:string -> Graph.t -> string
(** Graphviz rendering ([graph] block with [--] edges), for eyeballing
    small instances. *)

val write_file : string -> Graph.t -> unit
(** [write_file path g] writes [to_string g] to [path] — unless [path]
    ends in [.cgr], in which case the packed binary format is written
    via {!Cgr.write} instead.  Every [-o] flag in the CLI tools
    therefore emits binary by just naming a [.cgr] output. *)

val read_file : string -> Graph.t
(** [read_file path] loads the graph at [path], dispatching on content:
    a regular file starting with the [.cgr] magic bytes opens through
    {!Cgr.read_mmap}, which maps it and checks its CSR in one pass;
    anything else parses via {!read_channel} — streaming, so [path] may
    name a FIFO.
    @raise Sys_error / Failure / Cgr.Bad_file as appropriate. *)
