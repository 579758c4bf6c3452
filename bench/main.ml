(* Benchmark harness.

   Part 0 — kernel microbenches at n = 2^16: the word-parallel bitset
   kernels and the serial cobra_step_keyed on hypercube/expander/torus
   at the graph sizes the experiment tables want to afford.  `dune exec bench/main.exe --
   --quick` runs only these (plus the substrate kernels) under a reduced
   measurement quota and still writes BENCH_cobra.json — the CI smoke
   mode that makes kernel perf drift visible per PR.

   Part 1 — Bechamel microbenchmarks: one Test.make per experiment
   (e1..e12), timing the simulation kernel that experiment leans on, plus
   a few substrate kernels (step functions, eigenvalue solve, bitset
   sweep).  These quantify the cost of regenerating each table.

   Part 2 — table regeneration: runs every registered experiment at
   Quick scale so a single `dune exec bench/main.exe` reproduces all the
   paper-claim tables end to end (EXPERIMENTS.md records the Full-scale
   run of the same code via bin/experiments.exe). *)

open Bechamel
open Toolkit

module Gen = Cobra_graph.Gen
module Bitset = Cobra_bitset.Bitset
module Rng = Cobra_prng.Rng
module Process = Cobra_core.Process
module Cobra = Cobra_core.Cobra
module Bips = Cobra_core.Bips
module Gossip = Cobra_core.Gossip
module Walk = Cobra_core.Walk

(* Pre-built inputs shared by the benched closures; the RNG state
   advances across runs, which is what we want: each run measures a
   fresh random execution. *)

let rng = Rng.create 1234

let lollipop = Gen.lollipop ~clique:32 ~tail:32
let regular8_128 = Gen.random_regular ~n:128 ~r:8 (Rng.create 1)
let regular8_256 = Gen.random_regular ~n:256 ~r:8 (Rng.create 2)
let hypercube8 = Gen.hypercube 8
let torus16 = Gen.torus ~dims:[ 16; 16 ]
let cycle128 = Gen.cycle 128
let complete128 = Gen.complete 128
let petersen = Gen.petersen ()

let cover ?branching ?lazy_ g () = ignore (Cobra.run_cover g rng ?branching ?lazy_ ~start:0 ())

(* One serial keyed COBRA round per call on a fixed frontier; the round
   counter advances so every call draws fresh randomness. *)
let keyed_step g ~current =
  let ctx = Process.make_keyed_ctx g ~master:1234 in
  let next = Bitset.create (Cobra_graph.Graph.n g) in
  let round = ref 0 in
  fun () ->
    incr round;
    ignore
      (Process.cobra_step_keyed g ctx ~round:!round ~branching:(Process.Fixed 2) ~lazy_:false
         ~current ~next
        : int)

(* --- Part 0: n = 2^16 kernel microbenches --- *)

let n16 = 1 lsl 16
let hypercube16 = Gen.hypercube 16
let torus256 = Gen.torus ~dims:[ 256; 256 ]

(* Fewer switch rounds than the library default: the bench only needs a
   fixed expander-like subject, not a well-mixed uniform sample. *)
let regular8_65536 = Gen.random_regular ~n:n16 ~r:8 ~switches_per_edge:5 (Rng.create 3)

let spread k = List.init k (fun i -> i * (n16 / k))

let micro_kernels =
  let dense = Bitset.of_list n16 (spread 4096) in
  let dense_b = Bitset.of_list n16 (List.init 4096 (fun i -> (i * 16) + 7)) in
  let sparse = Bitset.of_list n16 (spread 32) in
  let union_dst = Bitset.of_list n16 (spread 4096) in
  [
    Test.make ~name:"micro: bitset iter n=65536 (|S|=4096)"
      (Staged.stage (fun () ->
           let acc = ref 0 in
           Bitset.iter (fun i -> acc := !acc + i) dense;
           ignore (Sys.opaque_identity !acc)));
    Test.make ~name:"micro: bitset union_into n=65536"
      (Staged.stage (fun () -> Bitset.union_into ~into:union_dst dense_b));
    Test.make ~name:"micro: bitset random_member n=65536 (|S|=4096)"
      (Staged.stage (fun () -> ignore (Bitset.random_member dense rng : int)));
    Test.make ~name:"micro: cobra_step_keyed hypercube d=16 (|C|=4096)"
      (Staged.stage (keyed_step hypercube16 ~current:dense));
    Test.make ~name:"micro: cobra_step_keyed regular8 n=65536 (|C|=4096)"
      (Staged.stage (keyed_step regular8_65536 ~current:dense));
    Test.make ~name:"micro: cobra_step_keyed torus 256x256 (|C|=4096)"
      (Staged.stage (keyed_step torus256 ~current:dense));
    Test.make ~name:"micro: cobra_step_keyed hypercube d=16 sparse (|C|=32)"
      (Staged.stage (keyed_step hypercube16 ~current:sparse));
    Test.make ~name:"cover: hypercube n=65536" (Staged.stage (cover hypercube16));
  ]

(* --- Part 0.5: domain-scaling of the keyed step kernel ---

   Times the same dense keyed COBRA rounds at several pool widths; keyed
   draws make every configuration compute bit-identical sets, so the
   rows differ only in wall time.  Measured by wall clock over a fixed
   round count rather than bechamel (the subject includes pool set-up
   state that must persist across rounds but not leak between
   configurations).  Quick mode: n = 2^16, pools of 1 and 2; full mode:
   n = 2^20, pools of 1, 2, 4 and 8. *)
(* A scaling row carries its metadata as structured fields — the CI
   bench gate keys on [(kernel, family, n, domains)] rather than
   re-parsing the display name. *)
type scaling_row = {
  sc_name : string;
  sc_kernel : string;
  sc_family : string;
  sc_n : int;
  sc_domains : int;
  sc_ns : float; (* ns per round *)
}

let scaling_rows ~quick =
  let logn = if quick then 16 else 20 in
  let n = 1 lsl logn in
  let widths = if quick then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  let rounds = if quick then 24 else 32 in
  let graphs =
    [
      ("hypercube", Printf.sprintf "hypercube d=%d" logn, Gen.hypercube logn);
      ( "regular8",
        Printf.sprintf "regular8 n=2^%d" logn,
        Gen.random_regular ~n ~r:8 ~switches_per_edge:(if quick then 5 else 2) (Rng.create 7)
      );
    ]
  in
  let dense_frontier () = Bitset.of_list n (List.init (n / 2) (fun i -> 2 * i)) in
  let time_rounds step =
    let current = ref (dense_frontier ()) in
    let next = ref (Bitset.create n) in
    let timer = Cobra_obs.Timer.start () in
    for round = 1 to rounds do
      ignore (step ~round ~current:!current ~next:!next : int);
      let tmp = !current in
      current := !next;
      next := tmp
    done;
    Cobra_obs.Timer.elapsed_s timer *. 1e9 /. float_of_int rounds
  in
  List.concat_map
    (fun (family, gname, g) ->
      let keyed =
        List.map
          (fun width ->
            Cobra_parallel.Pool.with_pool ~num_domains:(width - 1) (fun pool ->
                let ctx = Process.make_keyed_ctx ~pool g ~master:2017 in
                {
                  sc_name = Printf.sprintf "scaling: cobra_step_keyed %s domains=%d" gname width;
                  sc_kernel = "cobra_step_keyed";
                  sc_family = family;
                  sc_n = n;
                  sc_domains = width;
                  sc_ns =
                    time_rounds (fun ~round ~current ~next ->
                        Process.cobra_step_keyed g ctx ~round ~branching:(Process.Fixed 2)
                          ~lazy_:false ~current ~next);
                }))
          widths
      in
      keyed)
    graphs

let run_scaling ~quick =
  let rows = scaling_rows ~quick in
  Printf.printf "\n%-50s %15s\n" "domain scaling (dense keyed rounds)" "time/round";
  Printf.printf "%s\n" (String.make 66 '-');
  List.iter (fun r -> Printf.printf "%-50s %12.2f ms\n" r.sc_name (r.sc_ns /. 1e6)) rows;
  rows

let experiment_kernels =
  [
    Test.make ~name:"e1: cover lollipop n=64" (Staged.stage (cover lollipop));
    Test.make ~name:"e2: cover random 8-regular n=256" (Staged.stage (cover regular8_256));
    Test.make ~name:"e3: duality trial pair on petersen"
      (Staged.stage (fun () ->
           let start = Bitset.of_list 10 [ 7 ] in
           ignore (Cobra.hitting_time petersen rng ~max_rounds:4 ~start ~target:0 ());
           ignore (Bips.infected_after petersen rng ~rounds:4 ~source:0 ())));
    Test.make ~name:"e4: lazy cover hypercube d=8" (Staged.stage (cover ~lazy_:true hypercube8));
    Test.make ~name:"e5: cover torus 16x16" (Staged.stage (cover torus16));
    Test.make ~name:"e6: cover rho=0.25 8-regular n=128"
      (Staged.stage (cover ~branching:(Process.Bernoulli 0.25) regular8_128));
    Test.make ~name:"e7: bips trajectory 8-regular n=128"
      (Staged.stage (fun () -> ignore (Bips.run_trajectory regular8_128 rng ~source:0 ())));
    Test.make ~name:"e8: candidate set 8-regular n=256"
      (Staged.stage
         (let current = Bitset.of_list 256 (List.init 64 (fun i -> i * 3)) in
          let into = Bitset.create 256 in
          fun () -> Process.bips_candidate_set regular8_256 ~source:0 ~current ~into));
    Test.make ~name:"e9: walk cover complete n=128"
      (Staged.stage (fun () -> ignore (Walk.cover_time complete128 rng ~start:0 ())));
    Test.make ~name:"e10: lazy cover cycle n=128" (Staged.stage (cover ~lazy_:true cycle128));
    Test.make ~name:"e11: bips infection 8-regular n=256"
      (Staged.stage (fun () -> ignore (Bips.run_infection regular8_256 rng ~source:0 ())));
    Test.make ~name:"e12: 16 walks cover cycle n=128"
      (Staged.stage (fun () -> ignore (Walk.multi_cover_time cycle128 rng ~k:16 ~start:0 ())));
    Test.make ~name:"e13: gossip push-pull cover regular n=128"
      (Staged.stage (fun () ->
           ignore (Gossip.run_cover regular8_128 rng ~protocol:Gossip.Push_pull ~start:0 ())));
    Test.make ~name:"e14: cover without replacement n=128"
      (Staged.stage
         (let current = Bitset.create 128 and next = Bitset.create 128 in
          let ctx = Process.make_keyed_ctx regular8_128 ~master:1234 in
          let rounds = ref 0 in
          fun () ->
            Bitset.clear current;
            Bitset.add current 0;
            for _ = 1 to 20 do
              incr rounds;
              ignore
                (Process.cobra_step_without_replacement regular8_128 ctx ~round:!rounds ~b:2
                   ~current ~next);
              Bitset.blit ~src:next ~dst:current
            done));
    Test.make ~name:"e15: SIS absorption petersen"
      (Staged.stage
         (let petersen10 = Gen.petersen () in
          fun () ->
            let initial = Bitset.of_list 10 [ 0 ] in
            ignore (Cobra_core.Sis.run petersen10 rng ~initial ())));
  ]

let substrate_kernels =
  [
    Test.make ~name:"kernel: cobra_step_keyed 8-regular n=256"
      (Staged.stage
         (keyed_step regular8_256 ~current:(Bitset.of_list 256 (List.init 64 (fun i -> i * 2)))));
    Test.make ~name:"kernel: bips_step_keyed 8-regular n=256"
      (Staged.stage
         (let current = Bitset.of_list 256 (List.init 64 (fun i -> i * 2)) in
          let next = Bitset.create 256 in
          let ctx = Process.make_keyed_ctx regular8_256 ~master:1234 in
          let round = ref 0 in
          fun () ->
            incr round;
            Process.bips_step_keyed regular8_256 ctx ~round:!round ~branching:(Process.Fixed 2)
              ~lazy_:false ~source:0 ~current ~next));
    Test.make ~name:"kernel: second eigenvalue n=256"
      (Staged.stage (fun () ->
           ignore (Cobra_spectral.Eigen.second_eigenvalue ~tol:1e-8 regular8_256)));
    Test.make ~name:"kernel: bitset union n=4096"
      (Staged.stage
         (let a = Bitset.of_list 4096 (List.init 1000 (fun i -> i * 4)) in
          let b = Bitset.of_list 4096 (List.init 1000 (fun i -> (i * 4) + 1)) in
          fun () -> Bitset.union_into ~into:a b));
    Test.make ~name:"kernel: lazy mixing time n=128"
      (Staged.stage (fun () ->
           ignore (Cobra_spectral.Mixing.mixing_time ~lazy_:true regular8_128)));
    Test.make ~name:"kernel: exact cobra next-dist petersen |C|=3"
      (Staged.stage
         (let petersen10 = Gen.petersen () in
          fun () -> ignore (Cobra_exact.Cobra_chain.next_dist petersen10 ~current:0b1011 ())));
  ]

(* Representation ablation: the same keyed COBRA round implemented over
   a naive sorted-list set, to quantify what the bitset buys. *)
let cobra_step_list_based g k ~round current =
  let base = Cobra_prng.Keyed.round_base k ~round in
  let next = ref [] in
  List.iter
    (fun u ->
      Cobra_prng.Keyed.position_at k ~base ~vertex:u;
      for _ = 1 to 2 do
        let v = Cobra_graph.Graph.unsafe_keyed_neighbor g k u in
        if not (List.mem v !next) then next := v :: !next
      done)
    current;
  List.sort Int.compare !next

let ablation_kernels =
  [
    Test.make ~name:"ablation: cobra round, bitset set (|C|=64, n=256)"
      (Staged.stage
         (keyed_step regular8_256 ~current:(Bitset.of_list 256 (List.init 64 (fun i -> i * 2)))));
    Test.make ~name:"ablation: cobra round, list set (|C|=64, n=256)"
      (Staged.stage
         (let current = List.init 64 (fun i -> i * 2) in
          let k = Cobra_prng.Keyed.create ~master:1234 and round = ref 0 in
          fun () ->
            incr round;
            ignore (cobra_step_list_based regular8_256 k ~round:!round current)));
  ]

(* --- Part 0.75: spectral-engine solve benches ---

   Single-shot wall-clock rows for the iterative solvers (Lanczos second
   eigenvalue, CG hitting times, the blocked matvec against a naive
   reference).  Bechamel's sampling machinery is wrong for these: a full
   solve at n = 2^20 runs for seconds, and the interesting quantity is
   the cost of one deterministic solve, not a distribution over reruns.
   The rows carry structured metadata so the CI gate (bench/gate.ml)
   pins the solver costs by (kernel, n) instead of parsing names. *)
type spectral_row = {
  sp_name : string;
  sp_kernel : string;
  sp_family : string;
  sp_n : int;
  sp_ms : float; (* ms per solve *)
}

(* The pre-overhaul matvec, kept as the bench ablation baseline: degree
   scalings rebuilt per call, neighbour iteration through a closure. *)
let naive_normalized_matvec g x y =
  let n = Cobra_graph.Graph.n g in
  let inv_sqrt =
    Array.init n (fun u ->
        let d = Cobra_graph.Graph.degree g u in
        if d = 0 then 0.0 else 1.0 /. sqrt (float_of_int d))
  in
  for u = 0 to n - 1 do
    let s = ref 0.0 in
    Cobra_graph.Graph.iter_neighbors g u (fun v -> s := !s +. (x.(v) *. inv_sqrt.(v)));
    y.(u) <- !s *. inv_sqrt.(u)
  done

let spectral_rows ~quick =
  (* Minimum over reps, not mean: these rows feed absolute ceilings in
     bench/gate.exe, and the minimum estimates the noise-free cost of
     the deterministic solve — a GC pause or scheduler hiccup inflates
     the mean but cannot make a run faster than the code. *)
  let time_ms ~reps f =
    ignore (Sys.opaque_identity (f ()));
    let best = ref Float.infinity in
    for _ = 1 to reps do
      let timer = Cobra_obs.Timer.start () in
      ignore (Sys.opaque_identity (f ()));
      best := Float.min !best (Cobra_obs.Timer.elapsed_s timer)
    done;
    !best *. 1e3
  in
  let row name kernel family n ~reps f =
    { sp_name = name; sp_kernel = kernel; sp_family = family; sp_n = n; sp_ms = time_ms ~reps f }
  in
  let regular8_4096 = Gen.random_regular ~n:4096 ~r:8 ~switches_per_edge:5 (Rng.create 5) in
  let x16 = Array.init n16 (fun i -> sin (float_of_int i)) in
  let y16 = Array.make n16 0.0 in
  let op16 = Cobra_spectral.Matvec.normalized_op hypercube16 in
  let base =
    [
      row "spectral: second eigenvalue n=256 (lanczos)" "second_eigenvalue" "regular8" 256
        ~reps:20 (fun () -> Cobra_spectral.Eigen.second_eigenvalue ~tol:1e-8 regular8_256);
      row "spectral: second eigenvalue n=4096 (lanczos)" "second_eigenvalue" "regular8" 4096
        ~reps:3 (fun () -> Cobra_spectral.Eigen.second_eigenvalue ~tol:1e-8 regular8_4096);
      row "spectral: all hitting times n=128 (CG)" "all_hitting_times_cg" "regular8" 128
        ~reps:10 (fun () -> Cobra_core.Walk_theory.all_hitting_times regular8_128);
      row "spectral: matvec blocked hypercube d=16" "matvec_blocked" "hypercube" n16 ~reps:50
        (fun () -> Cobra_spectral.Matvec.apply op16 x16 y16);
      row "spectral: matvec naive hypercube d=16" "matvec_naive" "hypercube" n16 ~reps:50
        (fun () -> naive_normalized_matvec hypercube16 x16 y16);
    ]
  in
  if quick then base
  else begin
    let regular8_1024 = Gen.random_regular ~n:1024 ~r:8 ~switches_per_edge:5 (Rng.create 6) in
    let hypercube20 = Gen.hypercube 20 in
    base
    @ [
        row "spectral: all hitting times n=1024 (CG)" "all_hitting_times_cg" "regular8" 1024
          ~reps:1 (fun () -> Cobra_core.Walk_theory.all_hitting_times regular8_1024);
        row "spectral: second eigenvalue n=2^20 (lanczos)" "second_eigenvalue" "hypercube"
          (1 lsl 20) ~reps:1 (fun () ->
            Cobra_spectral.Eigen.second_eigenvalue ~tol:1e-8 hypercube20);
      ]
  end

let run_spectral ~quick =
  (* The bechamel section above leaves a large fragmented major heap;
     compact so the wall-clock solver rows measure the solvers, not the
     GC state the previous section happened to leave behind. *)
  Gc.compact ();
  let rows = spectral_rows ~quick in
  Printf.printf "\n%-50s %15s\n" "spectral solves" "time/solve";
  Printf.printf "%s\n" (String.make 66 '-');
  List.iter (fun r -> Printf.printf "%-50s %12.2f ms\n" r.sp_name r.sp_ms) rows;
  rows

(* --- Part 0.9: web-scale build and ingest throughput ---

   Single-shot wall-clock rows for the graph-construction layer: the
   counting-sort Builder and of_edge_array (the same assembly fed from
   a tuple array), the power-law generators, and the streaming SNAP ingester reading back a
   file it just wrote.  Like the spectral rows these are deterministic
   single solves, so minimum-over-reps wall clock is the right measure
   and bechamel's sampling is not.  Rows carry (kernel, family, n, m) so
   downstream tooling can key on structure rather than display names. *)
type ingest_row = {
  ig_name : string;
  ig_kernel : string;
  ig_family : string;
  ig_n : int;
  ig_m : int;
  ig_ms : float; (* ms per build/ingest *)
  ig_bytes_per_entry : float option;
      (* CSR bytes per directed adjacency entry of the product graph,
         on rows where a graph materialises (the packed-storage memory
         claim the gate pins at <= 4.5) *)
}

let ingest_rows ~quick =
  let time_ms ~reps f =
    ignore (Sys.opaque_identity (f ()));
    let best = ref Float.infinity in
    for _ = 1 to reps do
      let timer = Cobra_obs.Timer.start () in
      ignore (Sys.opaque_identity (f ()));
      best := Float.min !best (Cobra_obs.Timer.elapsed_s timer)
    done;
    !best *. 1e3
  in
  let n = if quick then 50_000 else 400_000 in
  let reps = if quick then 3 else 2 in
  let ba = Cobra_graph.Gen_extra.barabasi_albert ~n ~m:8 (Rng.create 21) in
  let edge_array = Array.of_list (Cobra_graph.Graph.edges ba) in
  let m = Array.length edge_array in
  let bytes_per_entry g =
    float_of_int (Cobra_graph.Graph.storage_bytes g)
    /. float_of_int (max 1 (2 * Cobra_graph.Graph.m g))
  in
  let row ?bytes name kernel family ~m ~ms =
    {
      ig_name = name;
      ig_kernel = kernel;
      ig_family = family;
      ig_n = n;
      ig_m = m;
      ig_ms = ms;
      ig_bytes_per_entry = bytes;
    }
  in
  let builder_row =
    row
      (Printf.sprintf "ingest: builder csr n=%d m=%d" n m)
      "builder_finish" "ba" ~m ~bytes:(bytes_per_entry ba)
      ~ms:
        (time_ms ~reps (fun () ->
             let b = Cobra_graph.Builder.create ~n ~edges_hint:m () in
             Array.iter (fun (u, v) -> Cobra_graph.Builder.add_edge b u v) edge_array;
             Cobra_graph.Builder.finish b))
  in
  let tuple_row =
    row
      (Printf.sprintf "ingest: of_edge_array n=%d m=%d" n m)
      "of_edge_array" "ba" ~m
      ~ms:(time_ms ~reps (fun () -> Cobra_graph.Graph.of_edge_array ~n edge_array))
  in
  let gen_ba_row =
    row
      (Printf.sprintf "ingest: generate ba m=8 n=%d" n)
      "generate_ba" "ba" ~m
      ~ms:(time_ms ~reps (fun () -> Cobra_graph.Gen_extra.barabasi_albert ~n ~m:8 (Rng.create 22)))
  in
  let cl = Cobra_graph.Chung_lu.power_law ~n ~exponent:2.5 (Rng.create 23) in
  let gen_cl_row =
    row
      (Printf.sprintf "ingest: generate chunglu 2.5 n=%d" n)
      "generate_chunglu" "chunglu" ~m:(Cobra_graph.Graph.m cl)
      ~ms:
        (time_ms ~reps (fun () ->
             Cobra_graph.Chung_lu.power_law ~n ~exponent:2.5 (Rng.create 23)))
  in
  let stream_row =
    (* Round-trip through a real file so the row measures the chunked
       line parser end to end, including channel reads. *)
    let path = Filename.temp_file "cobra_bench_ingest" ".snap" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc (Cobra_graph.Graph_io.to_snap ba));
        row
          (Printf.sprintf "ingest: read_stream snap n=%d m=%d" n m)
          "read_stream" "ba" ~m
          ~ms:
            (time_ms ~reps (fun () ->
                 let ic = open_in path in
                 Fun.protect
                   ~finally:(fun () -> close_in ic)
                   (fun () -> Cobra_graph.Graph_io.read_stream ic))))
  in
  (* A full neighbour scan: the access pattern of every kernel inner
     loop, timed below on a freshly mapped .cgr. *)
  let scan g =
    let acc = ref 0 in
    for u = 0 to Cobra_graph.Graph.n g - 1 do
      let d = Cobra_graph.Graph.unsafe_degree g u in
      for i = 0 to d - 1 do
        acc := !acc + Cobra_graph.Graph.unsafe_neighbor g u i
      done
    done;
    !acc
  in
  (* .cgr serialisation: write, eager (validating) load, mmap open plus
     a first-touch scan so the row prices the faults, not just mmap. *)
  let cgr_rows =
    let path = Filename.temp_file "cobra_bench" ".cgr" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        let write_row =
          row
            (Printf.sprintf "ingest: cgr write n=%d m=%d" n m)
            "cgr_write" "ba" ~m
            ~ms:(time_ms ~reps (fun () -> Cobra_graph.Cgr.write path ba))
        in
        let eager_row =
          row
            (Printf.sprintf "ingest: cgr read eager n=%d m=%d" n m)
            "cgr_read_eager" "ba" ~m ~bytes:(bytes_per_entry ba)
            ~ms:(time_ms ~reps (fun () -> Cobra_graph.Cgr.read_eager path))
        in
        let mmap_row =
          row
            (Printf.sprintf "ingest: cgr mmap + full scan n=%d m=%d" n m)
            "cgr_read_mmap" "ba" ~m ~bytes:(bytes_per_entry ba)
            ~ms:(time_ms ~reps (fun () -> scan (Cobra_graph.Cgr.read_mmap path)))
        in
        [ write_row; eager_row; mmap_row ])
  in
  [ builder_row; tuple_row; gen_ba_row; gen_cl_row; stream_row ] @ cgr_rows

let run_ingest ~quick =
  let rows = ingest_rows ~quick in
  Printf.printf "\n%-50s %15s\n" "build / ingest throughput" "time";
  Printf.printf "%s\n" (String.make 66 '-');
  List.iter
    (fun r ->
      Printf.printf "%-50s %9.2f ms (%5.1f Medge/s)%s\n" r.ig_name r.ig_ms
        (if r.ig_ms > 0.0 then float_of_int r.ig_m /. (r.ig_ms /. 1e3) /. 1e6 else 0.0)
        (match r.ig_bytes_per_entry with
        | Some b -> Printf.sprintf " [%.2f B/entry]" b
        | None -> ""))
    rows;
  rows

(* Bench history sink: name -> ns/run, machine-readable, so successive
   runs of `dune exec bench/main.exe` leave a comparable trajectory. *)
let bench_json = "BENCH_cobra.json"

let write_bench_json rows ~scaling ~spectral ~ingest =
  let entries =
    List.filter_map
      (fun (name, t) -> if Float.is_nan t then None else Some (name, Cobra_obs.Json.Float t))
      (rows
      @ List.map (fun r -> (r.sc_name, r.sc_ns)) scaling
      @ List.map (fun r -> (r.sp_name, r.sp_ms *. 1e6)) spectral
      @ List.map (fun r -> (r.ig_name, r.ig_ms *. 1e6)) ingest)
  in
  (* The scaling rows are duplicated under "scaling" with their metadata
     as structured fields; the CI bench gate (bench/gate.ml) reads only
     this array, keying rows by (kernel, family, n, domains) instead of
     parsing display names. *)
  let scaling_entries =
    List.map
      (fun r ->
        Cobra_obs.Json.Obj
          [
            ("kernel", Cobra_obs.Json.String r.sc_kernel);
            ("family", Cobra_obs.Json.String r.sc_family);
            ("n", Cobra_obs.Json.Int r.sc_n);
            ("domains", Cobra_obs.Json.Int r.sc_domains);
            ("ns_per_round", Cobra_obs.Json.Float r.sc_ns);
          ])
      scaling
  in
  (* Same idea for the solver rows: the gate pins Lanczos/CG costs by
     (kernel, n) from this array. *)
  let spectral_entries =
    List.map
      (fun r ->
        Cobra_obs.Json.Obj
          [
            ("kernel", Cobra_obs.Json.String r.sp_kernel);
            ("family", Cobra_obs.Json.String r.sp_family);
            ("n", Cobra_obs.Json.Int r.sp_n);
            ("ms_per_solve", Cobra_obs.Json.Float r.sp_ms);
          ])
      spectral
  in
  (* And the build/ingest rows, keyed by (kernel, family, n, m). *)
  let ingest_entries =
    List.map
      (fun r ->
        Cobra_obs.Json.Obj
          ([
             ("kernel", Cobra_obs.Json.String r.ig_kernel);
             ("family", Cobra_obs.Json.String r.ig_family);
             ("n", Cobra_obs.Json.Int r.ig_n);
             ("m", Cobra_obs.Json.Int r.ig_m);
             ("ms_per_run", Cobra_obs.Json.Float r.ig_ms);
           ]
          @
          match r.ig_bytes_per_entry with
          | Some b -> [ ("bytes_per_entry", Cobra_obs.Json.Float b) ]
          | None -> []))
      ingest
  in
  let doc =
    Cobra_obs.Json.Obj
      [
        ("schema", Cobra_obs.Json.String "cobra-bench/1");
        ("created_at", Cobra_obs.Json.String (Cobra_obs.Timer.iso8601 (Cobra_obs.Timer.stamp ())));
        ("git_revision", Cobra_obs.Json.String (Cobra_obs.Manifest.git_revision ()));
        ("unit", Cobra_obs.Json.String "ns/run");
        ("benchmarks", Cobra_obs.Json.Obj entries);
        ("scaling", Cobra_obs.Json.List scaling_entries);
        ("spectral", Cobra_obs.Json.List spectral_entries);
        ("ingest", Cobra_obs.Json.List ingest_entries);
      ]
  in
  let oc = open_out bench_json in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Cobra_obs.Json.to_string_pretty doc);
      output_char oc '\n');
  Printf.printf "\n[wrote %d benchmark estimates to %s]\n" (List.length entries) bench_json

let run_benchmarks ~quick () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    if quick then Benchmark.cfg ~limit:150 ~quota:(Time.second 0.15) ~kde:None ()
    else Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let suite =
    if quick then micro_kernels @ substrate_kernels
    else micro_kernels @ experiment_kernels @ substrate_kernels @ ablation_kernels
  in
  let tests = Test.make_grouped ~name:"cobra" suite in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "%-50s %15s\n" "benchmark" "time/run";
  Printf.printf "%s\n" (String.make 66 '-');
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows =
    List.sort
      (fun (a, ta) (b, tb) ->
        match String.compare a b with 0 -> Float.compare ta tb | c -> c)
      (List.map
         (fun (name, ols) ->
           let t = match Analyze.OLS.estimates ols with Some [ t ] -> t | _ -> nan in
           (name, t))
         rows)
  in
  List.iter
    (fun (name, t) ->
      let pretty =
        if Float.is_nan t then "-"
        else if t > 1e9 then Printf.sprintf "%8.2f  s" (t /. 1e9)
        else if t > 1e6 then Printf.sprintf "%8.2f ms" (t /. 1e6)
        else if t > 1e3 then Printf.sprintf "%8.2f us" (t /. 1e3)
        else Printf.sprintf "%8.0f ns" t
      in
      Printf.printf "%-50s %15s\n" name pretty)
    rows;
  let spectral = run_spectral ~quick in
  let ingest = run_ingest ~quick in
  let scaling = run_scaling ~quick in
  write_bench_json rows ~scaling ~spectral ~ingest

let run_tables pool =
  print_newline ();
  print_endline (String.make 78 '#');
  print_endline
    "# Experiment tables (Quick scale; EXPERIMENTS.md uses --full via bin/experiments)";
  print_endline (String.make 78 '#');
  let total = Cobra_obs.Timer.start () in
  List.iter
    (fun (e : Cobra_experiments.Experiment.t) ->
      print_newline ();
      print_string (Cobra_experiments.Experiment.header e);
      let timer = Cobra_obs.Timer.start () in
      print_string
        (e.run ~obs:Cobra_obs.Obs.null ~pool ~master_seed:2017
           ~scale:Cobra_experiments.Experiment.Quick);
      Printf.printf "[%s wall time: %.2fs]\n" e.id (Cobra_obs.Timer.elapsed_s timer);
      flush stdout)
    Cobra_experiments.Registry.all;
  Printf.printf "\n[all tables regenerated in %.1fs on a %d-worker pool]\n"
    (Cobra_obs.Timer.elapsed_s total)
    (Cobra_parallel.Pool.size pool)

(* One pool for the table phase: spawning domains per experiment would
   both slow the run down and leak workers into the bechamel timings.
   The scaling suite spawns its own short-lived pools, but only after
   every bechamel measurement has finished.  In --quick mode only the
   single-threaded kernel microbenches and the scaling smoke run. *)
let () =
  if Array.exists (( = ) "--quick") Sys.argv then run_benchmarks ~quick:true ()
  else
    Cobra_parallel.Pool.with_pool (fun pool ->
        run_benchmarks ~quick:false ();
        run_tables pool)
