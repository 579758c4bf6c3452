(* Tests for the int32 CSR storage and the .cgr binary format.

   Every graph carries its CSR as int32 bigarrays, so these tests pin
   the storage itself: 4 bytes per entry across the generator zoo (both
   construction paths: classic families via of_edge_array, power-law
   families via the Builder), every accessor against the raw arrays,
   and a .cgr write -> mmap load round trip, a simulation run off the
   mapped file, and the loader's rejection of torn files, of payloads
   that break the CSR range invariant and of slices that are unsorted,
   repeat an entry or list their own vertex, by hand-picked corruptions
   and by a fuzzing property. *)

module Graph = Cobra_graph.Graph
module Gen = Cobra_graph.Gen
module Cgr = Cobra_graph.Cgr
module Graph_io = Cobra_graph.Graph_io
module Process = Cobra_core.Process
module Bitset = Cobra_bitset.Bitset
module Rng = Cobra_prng.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* The zoo: every family string here is deterministic under the fixed
   seed, and the list deliberately spans both construction paths. *)
let zoo =
  [
    ("hypercube", 64);
    ("torus2d", 64);
    ("complete", 24);
    ("cycle", 63);
    ("lollipop", 40);
    ("regular-8", 96);
    ("gnp", 80);
    ("binary-tree", 31);
    ("petersen", 10);
    ("ba:4", 200);
    ("chunglu:2.5", 200);
    ("config:2.5", 200);
  ]

let zoo_graphs () =
  List.map (fun (fam, n) -> (fam, Gen.by_name fam ~n (Rng.create 2017))) zoo

let int32s a = Array.init (Bigarray.Array1.dim a) (Bigarray.Array1.get a)

let check_csr_equal msg a b =
  check_int (msg ^ ": n") (Graph.n a) (Graph.n b);
  check_int (msg ^ ": m") (Graph.m a) (Graph.m b);
  Alcotest.(check (array int32))
    (msg ^ ": offsets") (int32s (Graph.csr_offsets a)) (int32s (Graph.csr_offsets b));
  Alcotest.(check (array int32))
    (msg ^ ": adjacency") (int32s (Graph.csr_adjacency a)) (int32s (Graph.csr_adjacency b))

(* --- One storage: 4 bytes per entry, accessors read it directly --- *)

let test_storage_bytes () =
  List.iter
    (fun (fam, g) ->
      let entries = Graph.n g + 1 + (2 * Graph.m g) in
      check_int (fam ^ ": bytes") (4 * entries) (Graph.storage_bytes g))
    (zoo_graphs ())

(* Every accessor against the raw int32 arrays it reads: slices,
   degrees, ordered iteration, membership, and draws that land on the
   slice entry the index selects. *)
let test_accessors_agree () =
  List.iter
    (fun (fam, g) ->
      let offsets = Graph.csr_offsets g and adj = Graph.csr_adjacency g in
      let off u = Int32.to_int offsets.{u} in
      for u = 0 to Graph.n g - 1 do
        let slice = Array.init (off (u + 1) - off u) (fun i -> Int32.to_int adj.{off u + i}) in
        check_int (Printf.sprintf "%s: degree %d" fam u) (Array.length slice) (Graph.degree g u);
        Alcotest.(check (array int)) (Printf.sprintf "%s: neighbors %d" fam u) slice
          (Graph.neighbors g u);
        Alcotest.(check (list int))
          (Printf.sprintf "%s: fold order %d" fam u)
          (Array.to_list slice)
          (List.rev (Graph.fold_neighbors g u (fun acc v -> v :: acc) []));
        Array.iteri
          (fun i v ->
            if Graph.neighbor g u i <> v || not (Graph.mem_edge g u v) then
              Alcotest.failf "%s: neighbor/mem_edge disagree at (%d, %d)" fam u i)
          slice;
        if Array.length slice > 0 then begin
          let r1 = Rng.create (u + 1) and r2 = Rng.create (u + 1) in
          for _ = 1 to 8 do
            let i = Rng.int_below r1 (Array.length slice) in
            if Graph.random_neighbor g r2 u <> slice.(i) then
              Alcotest.failf "%s: random_neighbor is not slice.(int_below d) at %d" fam u
          done
        end
      done;
      check_int (fam ^ ": offsets.(n) = 2m") (2 * Graph.m g) (off (Graph.n g)))
    (zoo_graphs ())

(* --- Simulation driver for the mmap parity check --- *)

let run_cobra g ~seed ~rounds =
  let n = Graph.n g in
  let ctx = Process.make_keyed_ctx g ~master:seed in
  let current = Bitset.create n and next = Bitset.create n in
  Bitset.add current 0;
  let tx = ref 0 in
  let trace = Buffer.create 256 in
  for round = 1 to rounds do
    tx :=
      !tx
      + Process.cobra_step_keyed g ctx ~round ~branching:(Process.Fixed 2) ~lazy_:false ~current
          ~next;
    Bitset.blit ~src:next ~dst:current;
    Buffer.add_string trace (Printf.sprintf "%d;" (Bitset.cardinal current))
  done;
  (!tx, Buffer.contents trace, Bitset.to_list current)

(* --- .cgr round trip --- *)

let with_tmp f =
  let path = Filename.temp_file "cobra_test" ".cgr" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_cgr_roundtrip () =
  List.iter
    (fun (fam, g) ->
      with_tmp (fun path ->
          Cgr.write path g;
          let expected_bytes = 32 + (4 * (Graph.n g + 1 + (2 * Graph.m g))) in
          check_int (fam ^ ": file size") expected_bytes (Unix.stat path).Unix.st_size;
          check_csr_equal (fam ^ ": mmap round trip") g (Cgr.read_mmap path);
          (* Dispatch through the generic loader must land here too. *)
          check_bool (fam ^ ": sniff") true (Cgr.is_cgr_file path);
          check_csr_equal (fam ^ ": read_file dispatch") g (Graph_io.read_file path)))
    (zoo_graphs ())

(* The writer streams the int32 arrays through one staging buffer and
   boxes nothing per entry: writing about 2·10^4 entries allocates at
   most 1 024 minor words (an int32 boxed per entry would be three
   words each). *)
let test_cgr_write_allocates_little () =
  let g = Gen.by_name "ba:4" ~n:2_500 (Rng.create 9) in
  let entries = Graph.n g + 1 + (2 * Graph.m g) in
  check_bool (Printf.sprintf "%d entries" entries) true (entries >= 10_000);
  with_tmp (fun path ->
      let w = Alloc.words (fun () -> Cgr.write path g) in
      check_bool (Printf.sprintf "%.0f minor words for %d entries" w entries) true (w <= 1024.))

(* A simulation driven off the mmap-backed graph is bit-identical to
   one on the original: storage is invisible to the draw sequence. *)
let test_cgr_simulation_identical () =
  let g = Gen.by_name "ba:4" ~n:300 (Rng.create 5) in
  with_tmp (fun path ->
      Cgr.write path g;
      let mapped = Cgr.read_mmap path in
      let tx_a, trace_a, set_a = run_cobra g ~seed:13 ~rounds:10 in
      let tx_b, trace_b, set_b = run_cobra mapped ~seed:13 ~rounds:10 in
      check_int "transmissions" tx_a tx_b;
      Alcotest.(check string) "trace" trace_a trace_b;
      Alcotest.(check (list int)) "final set" set_a set_b)

(* --- Malformed files are rejected, never misread --- *)

(* [read_mmap] must raise [Bad_file] with a message that names the
   file, and so must [read_file] whenever the magic survives and it
   dispatches to the loader. *)
let expect_bad name path =
  let check_one loader f =
    match f path with
    | (_ : Graph.t) -> Alcotest.failf "%s (%s): malformed file was accepted" name loader
    | exception Cgr.Bad_file msg ->
        if not (String.starts_with ~prefix:(path ^ ": ") msg) then
          Alcotest.failf "%s (%s): message does not name the file: %s" name loader msg
  in
  check_one "read_mmap" Cgr.read_mmap;
  if Cgr.is_cgr_file path then check_one "read_file" Graph_io.read_file

(* Overwrite the bytes at [pos] with [b]. *)
let patch path ~pos b =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.lseek fd pos Unix.SEEK_SET : int);
      ignore (Unix.write fd b 0 (Bytes.length b) : int))

let patch_byte path ~pos ~byte = patch path ~pos (Bytes.make 1 (Char.chr byte))

(* A little-endian int32 word. *)
let patch_int32 path ~pos v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 v;
  patch path ~pos b

let resize_to path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.ftruncate fd len)

(* Byte positions of offset [u] and of adjacency slot [i] in [g]'s file. *)
let offset_pos u = 32 + (4 * u)
let slot_pos g i = 32 + (4 * (Graph.n g + 1)) + (4 * i)

let with_cgr g f =
  with_tmp (fun path ->
      Cgr.write path g;
      f path)

let test_cgr_rejects_malformed () =
  let g = Gen.by_name "hypercube" ~n:64 (Rng.create 1) in
  let size = 32 + (4 * (Graph.n g + 1 + (2 * Graph.m g))) in
  (* Truncation at several depths: inside the header, inside the
     offsets, one byte short of complete; and a trailing extra byte,
     which is as torn as a missing one. *)
  List.iter
    (fun len ->
      with_cgr g (fun path ->
          resize_to path len;
          expect_bad (Printf.sprintf "resized to %d" len) path))
    [ 0; 16; 40; size - 1; size + 1 ];
  (* Wrong version and nonzero reserved flags. *)
  with_cgr g (fun path ->
      patch_byte path ~pos:8 ~byte:9;
      expect_bad "bad version" path);
  with_cgr g (fun path ->
      patch_byte path ~pos:12 ~byte:1;
      expect_bad "nonzero flags" path);
  (* A corrupted magic is simply not a .cgr file: the sniff says no and
     the generic loader falls back to the text parser (which then fails
     on binary junk with its own error, not a misparse). *)
  with_cgr g (fun path ->
      patch_byte path ~pos:0 ~byte:Char.(code 'X');
      check_bool "sniff rejects" false (Cgr.is_cgr_file path);
      match Graph_io.read_file path with
      | (_ : Graph.t) -> Alcotest.fail "binary junk parsed as text"
      | exception Failure _ -> ());
  (* The size checks cannot see payload corruption: the last adjacency
     entry's high byte set puts it past n. *)
  with_cgr g (fun path ->
      patch_byte path ~pos:(size - 1) ~byte:0x7f;
      expect_bad "out-of-range adjacency" path)

(* Payloads that break the CSR range invariant, each rejected at open.
   Adjacency entries at n and 2^31 - 1: vertex 0's only entry on a path;
   a star's leaf 5, whose only entry is slot 9 + 4; and the star
   centre's first entry, which no level of a search from the centre
   reads, since every level there runs bottom-up.  Then offsets: an
   interior offset raised above its successor, one lowered below its
   predecessor, and a first offset other than 0. *)
let test_cgr_rejects_bad_payload () =
  List.iter
    (fun (case, g, slot) ->
      List.iter
        (fun bad ->
          with_cgr g (fun path ->
              patch_int32 path ~pos:(slot_pos g slot) bad;
              expect_bad (Printf.sprintf "%s, entry %ld" case bad) path))
        [ Int32.of_int (Graph.n g); Int32.max_int ])
    [ ("path", Gen.path 6, 0); ("star leaf", Gen.star 10, 9 + 4); ("star centre", Gen.star 10, 0) ];
  List.iter
    (fun (case, g, u, value) ->
      with_cgr g (fun path ->
          let off v = Int32.to_int (Graph.csr_offsets g).{v} in
          patch_int32 path ~pos:(offset_pos u) (Int32.of_int (value off));
          expect_bad case path))
    [
      ("path, offset 3 above offset 4", Gen.path 6, 3, fun off -> off 4 + 1);
      ("star, offset 5 above offset 6", Gen.star 10, 5, fun off -> off 6 + 1);
      ("star, offset 2 below offset 1", Gen.star 10, 2, fun off -> off 1 - 1);
      ("path, offsets.{0} = 1", Gen.path 6, 0, fun _ -> 1);
      ("star, offsets.{0} = -1", Gen.star 10, 0, fun _ -> -1);
    ]

(* Slices that meet the range invariant but not the simple-graph one,
   on Petersen, whose vertex 0 lists 1, 4, 5 in slots 0-2: slot 0 set
   to 0 makes 0 its own neighbour (the diameter then reads 4, not 2),
   slot 1 set to 1 repeats an entry, slot 0 set to 5 puts 5 before 4.
   Each is rejected at open, naming vertex 0 and the first slot that
   does not rise (for the unsorted slice, slot 1). *)
let test_cgr_rejects_bad_slices () =
  let g = Gen.petersen () in
  check_bool "vertex 0 lists 1, 4, 5" true (Graph.neighbors g 0 = [| 1; 4; 5 |]);
  List.iter
    (fun (case, slot, value, reported) ->
      with_cgr g (fun path ->
          patch_int32 path ~pos:(slot_pos g slot) value;
          expect_bad case path;
          match Cgr.read_mmap path with
          | _ -> ()
          | exception Cgr.Bad_file msg ->
              let names = Printf.sprintf "%s: vertex 0, adjacency slot %d " path reported in
              if not (String.starts_with ~prefix:names msg) then
                Alcotest.failf "%s: message does not name the vertex and slot: %s" case msg))
    [ ("self entry", 0, 0l, 0); ("duplicate", 1, 1l, 1); ("unsorted", 0, 5l, 1) ]

(* --- Fuzzing the loader --- *)

(* What every reader of a graph relies on: offsets rising from 0 to 2m,
   and every slice rising strictly inside [0, n) without its own
   vertex.  Read with checked accesses. *)
let meets_invariant g =
  let n = Graph.n g and m = Graph.m g in
  let offsets = Graph.csr_offsets g and adj = Graph.csr_adjacency g in
  let ok = ref (Bigarray.Array1.dim offsets = n + 1 && Bigarray.Array1.dim adj = 2 * m) in
  if !ok then begin
    ok := offsets.{0} = 0l && Int32.to_int offsets.{n} = 2 * m;
    for u = 0 to n - 1 do
      if offsets.{u + 1} < offsets.{u} then ok := false
    done;
    for i = 0 to (2 * m) - 1 do
      if adj.{i} < 0l || Int32.to_int adj.{i} >= n then ok := false
    done;
    for u = 0 to n - 1 do
      for i = Int32.to_int offsets.{u} to Int32.to_int offsets.{u + 1} - 1 do
        if Int32.to_int adj.{i} = u || (i > Int32.to_int offsets.{u} && adj.{i} <= adj.{i - 1})
        then ok := false
      done
    done
  end;
  !ok

let random_graph rng =
  let n = 1 + Rng.int_below rng 16 in
  let edges =
    List.init (Rng.int_below rng (2 * n)) (fun _ -> (Rng.int_below rng n, Rng.int_below rng n))
  in
  Graph.of_edges ~n (List.filter (fun (u, v) -> u <> v) edges)

(* A valid file of a random small graph, then one corruption: 1-4 int32
   words of the offsets or the adjacency overwritten, or the file
   truncated or extended to a random length.  [read_mmap] must raise
   [Bad_file] or return a graph that meets the invariant; any other
   exception fails the property. *)
let fuzz_test =
  QCheck2.Test.make ~name:"read_mmap: Bad_file or the CSR invariant" ~count:500
    ~print:string_of_int QCheck2.Gen.int (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng in
      let n = Graph.n g and m = Graph.m g in
      let size = 32 + (4 * (n + 1 + (2 * m))) in
      with_cgr g (fun path ->
          (if Rng.int_below rng 4 = 0 then resize_to path (Rng.int_below rng (2 * size))
           else
             let values =
               [| 0; n - 1; n; -1; Int32.to_int Int32.max_int; 2 * m; Rng.int_below rng (2 * m + 2) |]
             in
             for _ = 1 to 1 + Rng.int_below rng 4 do
               let pos =
                 if m = 0 || Rng.bool rng then offset_pos (Rng.int_below rng (n + 1))
                 else slot_pos g (Rng.int_below rng (2 * m))
               in
               patch_int32 path ~pos (Int32.of_int values.(Rng.int_below rng (Array.length values)))
             done);
          match Cgr.read_mmap path with
          | exception Cgr.Bad_file _ -> true
          | h -> meets_invariant h
          | exception e ->
              QCheck2.Test.fail_reportf "read_mmap raised %s" (Printexc.to_string e)))

let () =
  Alcotest.run "packed"
    [
      ( "storage",
        [
          Alcotest.test_case "storage_bytes on zoo" `Quick test_storage_bytes;
          Alcotest.test_case "accessors agree" `Quick test_accessors_agree;
        ] );
      ( "cgr",
        [
          Alcotest.test_case "write/mmap round trip" `Quick test_cgr_roundtrip;
          Alcotest.test_case "write allocates little" `Quick test_cgr_write_allocates_little;
          Alcotest.test_case "simulation on mmap graph" `Quick test_cgr_simulation_identical;
          Alcotest.test_case "malformed files rejected" `Quick test_cgr_rejects_malformed;
          Alcotest.test_case "corrupted payload rejected" `Quick test_cgr_rejects_bad_payload;
          Alcotest.test_case "bad slices rejected" `Quick test_cgr_rejects_bad_slices;
          QCheck_alcotest.to_alcotest fuzz_test;
        ] );
    ]
