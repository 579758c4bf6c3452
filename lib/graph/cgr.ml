(* .cgr: the packed binary on-disk graph format.

   Layout (all multi-byte fields little-endian):

     offset  size        field
     0       8           magic "cobra.gr"
     8       4           version (currently 1), int32
     12      4           reserved flags, int32, must be 0
     16      8           n, int64
     24      8           m, int64
     32      4 (n + 1)   CSR offsets, int32 each
     ...     4 * 2 m     CSR adjacency, int32 each

   The payload is exactly the packed in-memory representation, so the
   loader hands the kernels mmap-backed views of the file: both 4-byte
   aligned sections start at fixed, computable offsets, and
   [Unix.map_file] accepts an arbitrary byte position.  No copy of the
   graph is made, clean pages stay evictable, and the page cache is
   shared with every other process that maps the same file.

   The format is defined little-endian (the byte order of every target
   this project runs on); on a big-endian host both reader and writer
   refuse rather than silently swapping.

   One trust rule: a file is checked once, when it is opened, and the
   graph it yields is trusted everywhere after.  The loader checks the
   magic, version, flags, non-negative counts, int32 range, and that
   the file length is exactly [32 + 4 (n + 1) + 8 m] (a torn or
   truncated file is rejected before any data is interpreted).  It then
   makes one sequential pass over the mapped payload: the offsets start
   at 0, never decrease and end at 2m, and each vertex's slice rises
   strictly inside [0, n) without the vertex itself.  The range part is
   the invariant the kernels, the search and the matvec rely on when
   they index by CSR values without a bounds check; the rest makes the
   slices those of a simple graph, as [Int_sort.assemble_csr] builds
   them.  Symmetry stays trusted. *)

module A1 = Bigarray.Array1

let magic = "cobra.gr"
let version = 1
let header_bytes = 32

exception Bad_file of string

let fail path fmt = Printf.ksprintf (fun s -> raise (Bad_file (path ^ ": " ^ s))) fmt

let check_endianness path =
  if Sys.big_endian then
    fail path ".cgr is a little-endian format and this host is big-endian"

let expected_size ~n ~m = header_bytes + (4 * (n + 1)) + (4 * 2 * m)

(* --- Writer --- *)

(* Entries stream through a fixed 64 KiB staging buffer; the writer
   never materialises a second copy of the graph, so packing an
   m ~ 10^8 instance costs O(1) memory beyond the graph itself.  The
   loop takes the typed int32 array, not an accessor closure: under
   -opaque a closure returning [int32] boxes every entry (three minor
   words each). *)
let chunk_entries = 16384

let write_entries oc buf (a : Graph.int32_array) =
  let pos = ref 0 in
  for i = 0 to A1.dim a - 1 do
    if !pos = chunk_entries then begin
      output_bytes oc buf;
      pos := 0
    end;
    Bytes.set_int32_le buf (4 * !pos) (A1.unsafe_get a i);
    incr pos
  done;
  if !pos > 0 then output oc buf 0 (4 * !pos)

let write path g =
  check_endianness path;
  let n = Graph.n g and m = Graph.m g in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let header = Bytes.create header_bytes in
      Bytes.blit_string magic 0 header 0 8;
      Bytes.set_int32_le header 8 (Int32.of_int version);
      Bytes.set_int32_le header 12 0l;
      Bytes.set_int64_le header 16 (Int64.of_int n);
      Bytes.set_int64_le header 24 (Int64.of_int m);
      output_bytes oc header;
      let buf = Bytes.create (4 * chunk_entries) in
      write_entries oc buf (Graph.csr_offsets g);
      write_entries oc buf (Graph.csr_adjacency g))

(* --- Loader --- *)

let read_header path fd len =
  if len < header_bytes then fail path "truncated header (%d bytes)" len;
  let header = Bytes.create header_bytes in
  if Unix.read fd header 0 header_bytes < header_bytes then fail path "short header read";
  if Bytes.sub_string header 0 8 <> magic then fail path "bad magic (not a .cgr file)";
  let v = Int32.to_int (Bytes.get_int32_le header 8) in
  if v <> version then fail path "unsupported version %d (this reader handles %d)" v version;
  if Bytes.get_int32_le header 12 <> 0l then fail path "nonzero reserved flags";
  let n64 = Bytes.get_int64_le header 16 and m64 = Bytes.get_int64_le header 24 in
  let fits x = Int64.compare x 0L >= 0 && Int64.compare x (Int64.of_int32 Int32.max_int) <= 0 in
  if not (fits n64 && fits m64) then fail path "vertex or edge count out of int32 range";
  let n = Int64.to_int n64 and m = Int64.to_int m64 in
  if 2 * m > Int32.to_int Int32.max_int then fail path "2m = %d exceeds the int32 payload" (2 * m);
  let expected = expected_size ~n ~m in
  if len <> expected then
    fail path "file is %d bytes, header promises %d (n=%d, m=%d) — torn or truncated" len
      expected n m;
  (n, m)

(* The structural check, one sequential pass over the mapped payload.
   The arrays are typed: with the bigarray kind left to inference, each
   read compiles to a generic [caml_ba_get_1] call, and opening ba:8 at
   n = 10^6 took 290-450 ms instead of tens.  No hot loop makes a call;
   the defect is described only after a loop stops early.

   Each vertex's slice must rise strictly, which makes it sorted and
   duplicate-free, stay below n and skip the vertex itself.  [prev]
   starts at -1, so the rise also checks the lower bound.  On that
   graph the whole check takes 40-60 ms, against 24-35 ms for the range
   check alone.  Symmetry is not checked: a cursor pass that finds
   every entry's reverse edge took 410-555 ms there (2-vCPU VM). *)
let check_payload path ~n ~m (offsets : Graph.int32_array) (adj : Graph.int32_array) =
  let[@inline] offset u = Int32.to_int (A1.unsafe_get offsets u) in
  if offset 0 <> 0 then fail path "offsets.{0} = %d, not 0" (offset 0);
  let u = ref 0 in
  while !u < n && offset (!u + 1) >= offset !u do
    incr u
  done;
  if !u < n then
    fail path "offsets decrease at vertex %d: offsets.{%d} = %d > offsets.{%d} = %d" !u !u
      (offset !u) (!u + 1) (offset (!u + 1));
  if offset n <> 2 * m then fail path "offsets.{n} = %d, not 2m = %d" (offset n) (2 * m);
  let u = ref 0 and i = ref 0 and ok = ref true in
  while !ok && !u < n do
    let hi = offset (!u + 1) and prev = ref (-1) and self = !u in
    while
      !i < hi
      &&
      let v = Int32.to_int (A1.unsafe_get adj !i) in
      v > !prev && v <> self
    do
      prev := Int32.to_int (A1.unsafe_get adj !i);
      incr i
    done;
    (* A slice that rose strictly can break the upper bound only at its
       last entry. *)
    if !i = hi && !prev < n then incr u else ok := false
  done;
  if not !ok then begin
    (* Rescan the bad slice for its first defect. *)
    let u = !u and lo = offset !u in
    let[@inline] entry k = Int32.to_int (A1.unsafe_get adj k) in
    let k = ref lo in
    while
      let v = entry !k in
      v >= 0 && v < n && v <> u && (!k = lo || v > entry (!k - 1))
    do
      incr k
    done;
    let k = !k in
    let v = entry k in
    if v < 0 || v >= n then
      fail path "vertex %d, adjacency slot %d holds %d, outside [0, %d)" u k v n
    else if v = u then fail path "vertex %d, adjacency slot %d lists the vertex itself" u k
    else
      fail path "vertex %d, adjacency slot %d holds %d, not above the previous entry %d" u k v
        (entry (k - 1))
  end

let read_mmap path =
  check_endianness path;
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let len = (Unix.LargeFile.fstat fd).Unix.LargeFile.st_size in
      if Int64.compare len (Int64.of_int Sys.max_string_length) > 0 then
        fail path "file too large for this platform";
      let n, m = read_header path fd (Int64.to_int len) in
      (* MAP_PRIVATE read-only views; the mappings survive the fd close
         and are reclaimed by the GC when the graph dies. *)
      let map ~pos ~dim =
        A1.change_layout
          (Bigarray.array1_of_genarray
             (Unix.map_file fd ~pos:(Int64.of_int pos) Bigarray.int32 Bigarray.c_layout false
                [| dim |]))
          Bigarray.c_layout
      in
      let offsets = map ~pos:header_bytes ~dim:(n + 1) in
      let adj = map ~pos:(header_bytes + (4 * (n + 1))) ~dim:(2 * m) in
      check_payload path ~n ~m offsets adj;
      Graph.unsafe_of_packed_csr ~n ~m ~offsets ~adj)

(* Magic sniff for format dispatch: true iff [path] starts with the
   .cgr magic bytes.  Does not validate anything else. *)
let is_cgr_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let b = Bytes.create 8 in
      match really_input ic b 0 8 with
      | () -> Bytes.to_string b = magic
      | exception End_of_file -> false)
