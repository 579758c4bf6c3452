(* Tests for the int32 CSR storage and the .cgr binary format.

   Every graph carries its CSR as int32 bigarrays, so these tests pin
   the storage itself: 4 bytes per entry across the generator zoo (both
   construction paths: classic families via of_edge_array, power-law
   families via the Builder), every accessor against the raw arrays,
   and a .cgr write -> eager load -> mmap load round trip including
   torn-file rejection and a simulation run off the mapped file. *)

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
          let eager = Cgr.read_eager path in
          let mapped = Cgr.read_mmap path in
          check_csr_equal (fam ^ ": eager round trip") g eager;
          check_csr_equal (fam ^ ": mmap round trip") g mapped;
          (* Dispatch through the generic loader must land here too. *)
          check_bool (fam ^ ": sniff") true (Cgr.is_cgr_file path);
          check_csr_equal (fam ^ ": read_file dispatch") g (Graph_io.read_file path)))
    (zoo_graphs ())

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

let expect_bad name f =
  match f () with
  | (_ : Graph.t) -> Alcotest.failf "%s: malformed file was accepted" name
  | exception Cgr.Bad_file _ -> ()

let patch_byte path ~pos ~byte =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.lseek fd pos Unix.SEEK_SET : int);
      ignore (Unix.write fd (Bytes.make 1 (Char.chr byte)) 0 1 : int))

let truncate_to path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.ftruncate fd len)

let test_cgr_rejects_malformed () =
  let g = Gen.by_name "hypercube" ~n:64 (Rng.create 1) in
  let size = 32 + (4 * (Graph.n g + 1 + (2 * Graph.m g))) in
  let fresh f =
    with_tmp (fun path ->
        Cgr.write path g;
        f path)
  in
  (* Truncation at several depths: inside the header, inside the
     offsets, one byte short of complete. *)
  List.iter
    (fun len ->
      fresh (fun path ->
          truncate_to path len;
          expect_bad (Printf.sprintf "truncated to %d (eager)" len) (fun () ->
              Cgr.read_eager path);
          expect_bad (Printf.sprintf "truncated to %d (mmap)" len) (fun () ->
              Cgr.read_mmap path)))
    [ 0; 16; 40; size - 1 ];
  (* A trailing extra byte is as torn as a missing one. *)
  fresh (fun path ->
      let oc = open_out_gen [ Open_append; Open_binary ] 0 path in
      output_char oc '\x00';
      close_out oc;
      expect_bad "oversize (eager)" (fun () -> Cgr.read_eager path);
      expect_bad "oversize (mmap)" (fun () -> Cgr.read_mmap path));
  (* Wrong version and nonzero reserved flags. *)
  fresh (fun path ->
      patch_byte path ~pos:8 ~byte:9;
      expect_bad "bad version" (fun () -> Cgr.read_eager path));
  fresh (fun path ->
      patch_byte path ~pos:12 ~byte:1;
      expect_bad "nonzero flags" (fun () -> Cgr.read_mmap path));
  (* A corrupted magic is simply not a .cgr file: the sniff says no and
     the generic loader falls back to the text parser (which then fails
     on binary junk with its own error, not a misparse). *)
  fresh (fun path ->
      patch_byte path ~pos:0 ~byte:Char.(code 'X');
      check_bool "sniff rejects" false (Cgr.is_cgr_file path);
      match Graph_io.read_file path with
      | (_ : Graph.t) -> Alcotest.fail "binary junk parsed as text"
      | exception Failure _ -> ());
  (* The eager loader's structural walk catches payload corruption the
     size checks cannot: an adjacency entry pointing past n. *)
  fresh (fun path ->
      patch_byte path ~pos:(size - 1) ~byte:0x7f;
      expect_bad "out-of-range adjacency (eager)" (fun () -> Cgr.read_eager path))

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
          Alcotest.test_case "write/eager/mmap round trip" `Quick test_cgr_roundtrip;
          Alcotest.test_case "simulation on mmap graph" `Quick test_cgr_simulation_identical;
          Alcotest.test_case "malformed files rejected" `Quick test_cgr_rejects_malformed;
        ] );
    ]
