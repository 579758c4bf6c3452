(* Bench ledger writer.  `dune exec bench/main.exe` times the rows
   bench/gate.exe checks, with the rows around them, and writes them to
   BENCH_cobra.json in the format of bench/ledger.ml.  Rows fall in
   five layers of perfbench/layers.json:

   - round: dense keyed COBRA rounds (b = 2) on hypercube d=16 and an
     8-regular graph at n = 2^16, serial and on a 2-wide pool;
   - spectral: the Lanczos lambda solve behind Thm 1.2's bound, the CG
     all-pairs hitting times beside the dense solve they replaced
     (test/dense_oracle.ml), and the matvec both solvers run on;
   - graph: CSR assembly, generators and SNAP/.cgr ingest of a ba:8
     graph with n = 50 000, the CSR's bytes per directed entry, and the
     generators of serve-mixed's heavy and light jobs (regular-8 at
     n = 512, hypercube at n = 1 024);
   - estimator: the start-vertex double sweep (Estimate.start_heuristic)
     on that same ba:8 graph;
   - substrate: 2^20 keyed draws (Keyed.int_below_run), no graph. *)

module Gen = Cobra_graph.Gen
module Graph = Cobra_graph.Graph
module Bitset = Cobra_bitset.Bitset
module Rng = Cobra_prng.Rng
module Pool = Cobra_parallel.Pool
module Process = Cobra_core.Process

(* The one timer.  Each subject runs once untimed (a warm-up that wakes
   pools, faults pages in and builds lazy scratch), then [reps] timed
   runs taken in turn (A, B, A, B ...), so paired rows see the same
   host.  Returns each subject's (min, median) in seconds.  The gate
   reads the min: noise can slow a deterministic run down but cannot
   speed it up. *)
let time ~reps subjects =
  List.iter (fun f -> f ()) subjects;
  let samples = List.map (fun _ -> Array.make reps 0.0) subjects in
  for r = 0 to reps - 1 do
    List.iter2
      (fun f s ->
        let t = Cobra_obs.Timer.start () in
        f ();
        s.(r) <- Cobra_obs.Timer.elapsed_s t)
      subjects samples
  done;
  List.map
    (fun s ->
      Array.sort Float.compare s;
      let mid = reps / 2 in
      (s.(0), if reps mod 2 = 1 then s.(mid) else (s.(mid - 1) +. s.(mid)) /. 2.0))
    samples

let run f () = ignore (Sys.opaque_identity (f ()))

(* One row per (kernel, pool width, run) subject, all timed together on
   an input of size [n], [m]; a rep of [per] rounds is reported per
   round. *)
let timed_size ~layer ~family ?(unit = "ms") ?(per = 1) ~n ~m ~reps subjects =
  let ms s = s *. 1e3 /. float_of_int per in
  List.map2
    (fun (kernel, domains, _) (min, median) ->
      { Ledger.layer; kernel; family; n; m; domains; unit; min = ms min; median = ms median; reps })
    subjects
    (time ~reps (List.map (fun (_, _, f) -> f) subjects))

(* The same, on graph [g]. *)
let timed ~layer ~family ?unit ?per g ~reps subjects =
  timed_size ~layer ~family ?unit ?per ~n:(Graph.n g) ~m:(Graph.m g) ~reps subjects

(* Keyed draws make both widths compute bit-identical sets, so the two
   rows of a family differ only in wall time.  Every rep replays the
   same 24 rounds from the same half-full frontier, and both pools stay
   up for the whole section. *)
let round_rows () =
  let logn = 16 and rounds = 24 in
  let n = 1 lsl logn in
  let start = Bitset.of_list n (List.init (n / 2) (fun i -> 2 * i)) in
  let current = Bitset.create n and next = Bitset.create n in
  let graphs =
    [
      ("hypercube", Gen.hypercube logn);
      ("regular8", Gen.random_regular ~n ~r:8 ~switches_per_edge:5 (Rng.create 7));
    ]
  in
  Pool.with_pool ~num_domains:0 (fun serial ->
      Pool.with_pool ~num_domains:1 (fun sharded ->
          List.concat_map
            (fun (family, g) ->
              let subject pool =
                let ctx = Process.make_keyed_ctx ~pool g ~master:2017 in
                ( "cobra_step_keyed",
                  Pool.size pool,
                  fun () ->
                    Bitset.blit ~src:start ~dst:current;
                    let cur = ref current and nxt = ref next in
                    for round = 1 to rounds do
                      ignore
                        (Process.cobra_step_keyed g ctx ~round ~branching:(Process.Fixed 2)
                           ~lazy_:false ~current:!cur ~next:!nxt
                          : int);
                      let tmp = !cur in
                      cur := !nxt;
                      nxt := tmp
                    done )
              in
              timed ~layer:"round" ~family ~unit:"ms/round" ~per:rounds g ~reps:10
                [ subject serial; subject sharded ])
            graphs))

let spectral_rows () =
  let regular8_128 = Gen.random_regular ~n:128 ~r:8 (Rng.create 1) in
  let regular8_256 = Gen.random_regular ~n:256 ~r:8 (Rng.create 2) in
  let regular8_4096 = Gen.random_regular ~n:4096 ~r:8 ~switches_per_edge:5 (Rng.create 5) in
  let hypercube16 = Gen.hypercube 16 in
  (* One spectrum solve; the kernel keeps the name of the entry point it
     replaced, because the gate and the committed ledgers look it up by
     that name. *)
  let lanczos g ~reps =
    timed ~layer:"spectral" ~family:"regular8" g ~reps
      [
        ("second_eigenvalue", 1, run (fun () -> Cobra_spectral.Eigen.spectrum ~tol:1e-8 g));
      ]
  in
  let small = lanczos regular8_256 ~reps:20 in
  let large = lanczos regular8_4096 ~reps:3 in
  (* CG must be no slower than the dense solve it replaced; timing both
     here, interleaved, makes that a ratio on one host. *)
  let hitting =
    timed ~layer:"spectral" ~family:"regular8" regular8_128 ~reps:15
      [
        ( "all_hitting_times_cg",
          1,
          run (fun () -> Cobra_core.Walk_theory.all_hitting_times regular8_128) );
        ( "all_hitting_times_dense",
          1,
          run (fun () -> Dense_oracle.all_hitting_times_dense regular8_128) );
      ]
  in
  let x = Array.init (Graph.n hypercube16) (fun i -> sin (float_of_int i)) in
  let y = Array.make (Graph.n hypercube16) 0.0 in
  let op = Cobra_spectral.Matvec.normalized_op hypercube16 in
  let matvec =
    timed ~layer:"spectral" ~family:"hypercube" hypercube16 ~reps:50
      [ ("matvec", 1, fun () -> Cobra_spectral.Matvec.apply op x y) ]
  in
  small @ large @ hitting @ matvec

(* A full neighbour scan, the access pattern of every kernel's inner
   loop: the cgr_read_mmap row times the checked open and then one pass
   of reads over the mapping. *)
let scan g =
  let acc = ref 0 in
  for u = 0 to Graph.n g - 1 do
    for i = 0 to Graph.unsafe_degree g u - 1 do
      acc := !acc + Graph.unsafe_neighbor g u i
    done
  done;
  !acc

let graph_rows () =
  let n = 50_000 and reps = 3 in
  let ba = Cobra_graph.Gen_extra.barabasi_albert ~n ~m:8 (Rng.create 21) in
  let edges = Array.of_list (Graph.edges ba) in
  let one ?(family = "ba") ?(g = ba) kernel f =
    timed ~layer:"graph" ~family g ~reps [ (kernel, 1, run f) ]
  in
  let snap = Filename.temp_file "cobra_bench" ".snap" in
  let cgr = Filename.temp_file "cobra_bench" ".cgr" in
  Fun.protect
    ~finally:(fun () -> List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ snap; cgr ])
    (fun () ->
      Out_channel.with_open_bin snap (fun oc ->
          output_string oc (Cobra_graph.Graph_io.to_snap ba));
      let builder =
        one "builder_finish" (fun () ->
            let b = Cobra_graph.Builder.create ~n ~edges_hint:(Array.length edges) () in
            Array.iter (fun (u, v) -> Cobra_graph.Builder.add_edge b u v) edges;
            Cobra_graph.Builder.finish b)
      in
      let tuples = one "of_edge_array" (fun () -> Graph.of_edge_array ~n edges) in
      let gen_ba =
        one "generate_ba" (fun () -> Cobra_graph.Gen_extra.barabasi_albert ~n ~m:8 (Rng.create 22))
      in
      let chunglu () = Cobra_graph.Chung_lu.power_law ~n ~exponent:2.5 (Rng.create 23) in
      let gen_cl = one ~family:"chunglu" ~g:(chunglu ()) "generate_chunglu" chunglu in
      (* The graph a serve-mixed heavy job builds: regular-8 at n = 512. *)
      let regular8 () = Gen.by_name "regular-8" ~n:512 (Rng.create 24) in
      let gen_regular =
        timed ~layer:"graph" ~family:"regular8" (regular8 ()) ~reps:15
          [ ("generate_regular8", 1, run regular8) ]
      in
      (* And the one a light job builds: hypercube at n = 1 024. *)
      let hypercube () = Gen.by_name "hypercube" ~n:1024 (Rng.create 25) in
      let gen_hypercube =
        timed ~layer:"graph" ~family:"hypercube" (hypercube ()) ~reps:15
          [ ("generate_hypercube", 1, run hypercube) ]
      in
      let stream =
        one "read_stream" (fun () ->
            In_channel.with_open_text snap Cobra_graph.Graph_io.read_stream)
      in
      let write = one "cgr_write" (fun () -> Cobra_graph.Cgr.write cgr ba) in
      let mmap = one "cgr_read_mmap" (fun () -> scan (Cobra_graph.Cgr.read_mmap cgr)) in
      let bytes =
        float_of_int (Graph.storage_bytes ba) /. float_of_int (2 * Graph.m ba)
      in
      let start =
        timed ~layer:"estimator" ~family:"ba:8" ba ~reps:10
          [ ("start_heuristic", 1, run (fun () -> Cobra_core.Estimate.start_heuristic ba)) ]
      in
      builder @ tuples @ gen_ba @ gen_cl @ gen_regular @ gen_hypercube @ stream @ write @ mmap
      @ start
      @ [
          {
            Ledger.layer = "graph";
            kernel = "bytes_per_entry";
            family = "ba";
            n;
            m = Graph.m ba;
            domains = 1;
            unit = "B";
            min = bytes;
            median = bytes;
            reps = 1;
          };
        ])

(* The keyed draw loop alone: 2^20 draws below 1000 into one buffer,
   the ledger form of perfbench's substrate.keyed_draws_per_s.  [n] is
   the draw count; no graph is involved. *)
let substrate_rows () =
  let draws = 1 lsl 20 in
  let k = Cobra_prng.Keyed.create ~master:1 and out = Array.make draws 0 in
  timed_size ~layer:"substrate" ~family:"none" ~n:draws ~m:0 ~reps:21
    [
      ("keyed_int_below_run", 1, fun () -> Cobra_prng.Keyed.int_below_run k 1000 ~out ~count:draws);
    ]

let bench_json = "BENCH_cobra.json"

let () =
  let round = round_rows () in
  let spectral = spectral_rows () in
  let graph = graph_rows () in
  let substrate = substrate_rows () in
  let rows = round @ spectral @ graph @ substrate in
  Printf.printf "%-8s %-24s %-9s %8s %8s %7s %11s %11s  %s\n" "layer" "kernel" "family" "n" "m"
    "domains" "min" "median" "unit";
  List.iter
    (fun (r : Ledger.row) ->
      Printf.printf "%-8s %-24s %-9s %8d %8d %7d %11.4f %11.4f  %s\n" r.layer r.kernel r.family
        r.n r.m r.domains r.min r.median r.unit)
    rows;
  Ledger.write bench_json
    {
      git_revision = Cobra_obs.Manifest.git_revision ();
      created_at = Cobra_obs.Timer.iso8601 (Cobra_obs.Timer.stamp ());
      recommended_domain_count = Domain.recommended_domain_count ();
      rows;
    };
  Printf.printf "[wrote %d rows to %s]\n" (List.length rows) bench_json
