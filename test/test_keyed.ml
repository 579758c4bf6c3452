(* Keyed (counter-based) randomness: unit tests for the Keyed stream
   itself, and the tentpole property of the domain-sharded kernels —
   bit-identical results for every pool size.

   Pool widths tested are 1, 2 and 4 total workers (num_domains 0/1/3),
   plus an optional extra width from the COBRA_TEST_DOMAINS environment
   variable so CI can probe an arbitrary configuration.  The small
   graphs here force the sharded path with ~dense_threshold:1; results
   must equal the no-pool serial run exactly. *)

module Bitset = Cobra_bitset.Bitset
module Graph = Cobra_graph.Graph
module Gen = Cobra_graph.Gen
module Keyed = Cobra_prng.Keyed
module Rng = Cobra_prng.Rng
module Pool = Cobra_parallel.Pool
module Process = Cobra_core.Process
module Cobra = Cobra_core.Cobra
module Bips = Cobra_core.Bips
module Sis = Cobra_core.Sis

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Total worker counts exercised by every invariance test. *)
let pool_widths =
  let base = [ 1; 2; 4 ] in
  match Sys.getenv_opt "COBRA_TEST_DOMAINS" with
  | Some s ->
      (match int_of_string_opt s with
      | Some k when k >= 1 && not (List.mem k base) -> base @ [ k ]
      | _ -> base)
  | None -> base

let with_width width f = Pool.with_pool ~num_domains:(width - 1) f

(* --- Keyed stream units --- *)

let draws k n = List.init n (fun _ -> Keyed.next64 k)

let test_replay () =
  let a = Keyed.create ~master:42 in
  let b = Keyed.create ~master:42 in
  Keyed.position a ~round:3 ~vertex:17;
  Keyed.position b ~round:3 ~vertex:17;
  Alcotest.(check (list int64)) "same position, same stream" (draws a 8) (draws b 8);
  (* Repositioning replays from the start of the (round, vertex) stream
     regardless of how far the previous position was consumed. *)
  Keyed.position a ~round:3 ~vertex:17;
  Keyed.position b ~round:3 ~vertex:17;
  ignore (Keyed.next64 b);
  Keyed.position b ~round:3 ~vertex:17;
  Alcotest.(check (list int64)) "reposition replays" (draws a 4) (draws b 4)

let test_distinct_positions () =
  let k = Keyed.create ~master:42 in
  let first ~round ~vertex =
    Keyed.position k ~round ~vertex;
    Keyed.next64 k
  in
  let base = first ~round:1 ~vertex:1 in
  check_bool "round separates" true (base <> first ~round:2 ~vertex:1);
  check_bool "vertex separates" true (base <> first ~round:1 ~vertex:2);
  let other = Keyed.create ~master:43 in
  Keyed.position other ~round:1 ~vertex:1;
  check_bool "master separates" true (base <> Keyed.next64 other)

let test_copy_independent () =
  let a = Keyed.create ~master:7 in
  Keyed.position a ~round:5 ~vertex:9;
  let b = Keyed.copy a in
  let da = draws a 6 in
  let db = draws b 6 in
  Alcotest.(check (list int64)) "copy continues identically" da db

let test_int_below_range () =
  let k = Keyed.create ~master:1 in
  List.iter
    (fun bound ->
      Keyed.position k ~round:1 ~vertex:bound;
      for _ = 1 to 200 do
        let v = Keyed.int_below k bound in
        if v < 0 || v >= bound then Alcotest.failf "int_below %d returned %d" bound v
      done)
    [ 1; 2; 3; 7; 63; 64; 1000 ]

let test_int_below_uniform_ish () =
  (* Coarse uniformity: 6 buckets, 6000 draws, each bucket within 30%
     of its expectation.  Deterministic given the fixed key. *)
  let k = Keyed.create ~master:2 in
  Keyed.position k ~round:1 ~vertex:0;
  let counts = Array.make 6 0 in
  for _ = 1 to 6000 do
    let v = Keyed.int_below k 6 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      if c < 700 || c > 1300 then Alcotest.failf "bucket %d count %d far from 1000" i c)
    counts

let test_bernoulli_degenerate () =
  (* p <= 0 and p >= 1 must consume no randomness: the contract that
     keeps Fixed/Bernoulli draws aligned. *)
  let a = Keyed.create ~master:3 in
  Keyed.position a ~round:2 ~vertex:4;
  let b = Keyed.copy a in
  check_bool "p=1 true" true (Keyed.bernoulli a 1.0);
  check_bool "p=0 false" false (Keyed.bernoulli a 0.0);
  check_bool "p=1.5 true" true (Keyed.bernoulli a 1.5);
  Alcotest.(check int64) "no draws consumed" (Keyed.next64 b) (Keyed.next64 a);
  (* Non-degenerate p consumes exactly one draw. *)
  ignore (Keyed.bernoulli a 0.5);
  ignore (Keyed.next64 b);
  Alcotest.(check int64) "one draw consumed" (Keyed.next64 b) (Keyed.next64 a)

let test_float01_range () =
  let k = Keyed.create ~master:4 in
  Keyed.position k ~round:1 ~vertex:0;
  for _ = 1 to 1000 do
    let x = Keyed.float01 k in
    if not (x >= 0.0 && x < 1.0) then Alcotest.failf "float01 out of range: %f" x
  done

let test_round_base_hoist () =
  (* position_at with a hoisted round_base must land on exactly the
     position that the two-mix position computes. *)
  let a = Keyed.create ~master:17 in
  let b = Keyed.create ~master:17 in
  List.iter
    (fun (round, vertex) ->
      Keyed.position a ~round ~vertex;
      let base = Keyed.round_base b ~round in
      Keyed.position_at b ~base ~vertex;
      Alcotest.(check (list int64))
        (Printf.sprintf "round=%d vertex=%d" round vertex)
        (draws a 4) (draws b 4))
    [ (0, 0); (1, 1); (3, 17); (5, 9); (12, 65535); (100, 1) ]

let test_masked_and_run_draw_compatible () =
  (* mask_below is the int_below rejection mask; int_below_run must be
     draw-for-draw interchangeable with repeated int_below — same
     values, same counter consumption (including rejections). *)
  List.iter
    (fun n ->
      let mask = Keyed.mask_below n in
      check_bool
        (Printf.sprintf "mask covers n=%d" n)
        true
        (mask >= n - 1 && (mask = 1 || mask / 2 < n - 1) && mask land (mask + 1) = 0);
      let a = Keyed.create ~master:23 in
      let b = Keyed.create ~master:23 in
      Keyed.position a ~round:1 ~vertex:n;
      Keyed.position b ~round:1 ~vertex:n;
      let count = 64 in
      let out = Array.make count (-1) in
      Keyed.int_below_run a n ~out ~count;
      for i = 0 to count - 1 do
        check_int (Printf.sprintf "n=%d draw %d (int_below)" n i) out.(i) (Keyed.int_below b n)
      done;
      (* Both cursors consumed the same number of draws. *)
      let va = Keyed.next64 a and vb = Keyed.next64 b in
      check_bool (Printf.sprintf "n=%d counters aligned" n) true (va = vb))
    [ 1; 2; 3; 4; 7; 8; 63; 64; 65; 1000; 0x3FFFFFFF; 0x40000000; 0x40000001 ]

(* Draws at a fixed (master, round, vertex), recorded before the cursor
   moved from a mutable int64 record field to unboxed bytes: the storage
   must not move a single bit. *)
let test_known_answers () =
  let k = Keyed.create ~master:2017 in
  Keyed.position k ~round:3 ~vertex:5;
  Alcotest.(check (list int64))
    "next64 at (2017, 3, 5)"
    [ 5243051534537771399L; -8535870139208726042L; 3526605039345047620L ]
    (draws k 3);
  Keyed.position k ~round:3 ~vertex:5;
  check_int "int_below 1000003" 50149 (Keyed.int_below k 1_000_003);
  check_int "int_below 2^40" 916269195897 (Keyed.int_below k (1 lsl 40));
  check_int "int_below 7" 6 (Keyed.int_below k 7);
  Alcotest.(check int64) "round_base 3" 3550733982712973731L (Keyed.round_base k ~round:3)

(* --- Allocation ---

   Repositioning and every draw that returns an [int] or a [bool]
   allocate nothing, so 10^5 of them allocate no more than the
   measurement; [next64] and [float01] box only their result.  The step
   kernels built on them allocate a constant per call (a closure, the
   hoisted round key), whatever the graph's size. *)

let test_draws_allocate_nothing () =
  let count = 100_000 in
  let k = Keyed.create ~master:1 in
  let base = Keyed.round_base k ~round:1 in
  let out = Array.make count 0 in
  let each name ?(per_draw = 0) draw =
    let w = Alloc.words (fun () -> for i = 1 to count do draw i done) in
    check_bool
      (Printf.sprintf "%s: %.0f minor words for %d calls" name w count)
      true
      (w <= float_of_int (per_draw * count) +. 64.)
  in
  each "position" (fun v -> Keyed.position k ~round:2 ~vertex:v);
  each "position_at" (fun v -> Keyed.position_at k ~base ~vertex:v);
  each "int_below" (fun _ -> ignore (Sys.opaque_identity (Keyed.int_below k 1000)));
  each "int_below 2^40" (fun _ -> ignore (Sys.opaque_identity (Keyed.int_below k (1 lsl 40))));
  each "bool" (fun _ -> ignore (Sys.opaque_identity (Keyed.bool k)));
  each "bernoulli" (fun _ -> ignore (Sys.opaque_identity (Keyed.bernoulli k 0.3)));
  each "next64" ~per_draw:3 (fun _ -> ignore (Sys.opaque_identity (Keyed.next64 k)));
  each "float01" ~per_draw:2 (fun _ -> ignore (Sys.opaque_identity (Keyed.float01 k)));
  let w = Alloc.words (fun () -> Keyed.int_below_run k 1000 ~out ~count) in
  check_bool (Printf.sprintf "int_below_run: %.0f minor words" w) true (w <= 64.)

(* One dense round of each kernel, measured after a warm-up round, at
   two sizes: the bound does not grow with n.  Serially the whole round
   runs on the calling domain.  On a 2-wide pool with every round
   sharded, the words counted are the submitting domain's: the pool's
   job bookkeeping plus the chunks it claims itself.  A kernel that
   boxed an int64 per draw or per vertex allocates thousands of words
   here. *)
let test_dense_steps_allocate_constant () =
  Pool.with_pool ~num_domains:1 (fun pool ->
      List.iter
        (fun d ->
          let g = Gen.hypercube d in
          let n = Graph.n g in
          let current = Bitset.create n and next = Bitset.create n in
          for u = 0 to n - 1 do
            if u land 3 <> 0 then Bitset.add current u
          done;
          List.iter
            (fun (path, bound, make_ctx) ->
              List.iter
                (fun (label, branching, lazy_) ->
                  let ctx = make_ctx () in
                  List.iter
                    (fun (kernel, step) ->
                      step ~round:1;
                      let w = Alloc.words (fun () -> step ~round:2) in
                      check_bool
                        (Printf.sprintf "%s %s %s n=%d: %.0f minor words" path kernel label n w)
                        true (w <= bound))
                    [
                      ( "cobra",
                        fun ~round ->
                          ignore
                            (Process.cobra_step_keyed g ctx ~round ~branching ~lazy_ ~current ~next
                              : int) );
                      ( "bips",
                        fun ~round ->
                          Process.bips_step_keyed g ctx ~round ~branching ~lazy_ ~source:0 ~current
                            ~next );
                      ( "sis",
                        fun ~round ->
                          Process.sis_step_keyed g ctx ~round ~branching ~lazy_ ~current ~next );
                    ])
                [ ("b=2", Process.Fixed 2, false); ("rho=0.5 lazy", Process.Bernoulli 0.5, true) ])
            [
              ("serial", 64., fun () -> Process.make_keyed_ctx g ~master:5);
              ( "sharded",
                256.,
                fun () -> Process.make_keyed_ctx ~pool ~dense_threshold:1 g ~master:5 );
            ])
        [ 12; 14 ])

(* --- The kernels' inline draws --- *)

(* A star on [n] vertices whose centre [c] has the [d] lowest other
   vertices as leaves; every vertex above them is isolated. *)
let star ~n ~c ~d =
  let others = List.filter (fun v -> v <> c) (List.init (d + 1) Fun.id) in
  Graph.of_edges ~n (List.filteri (fun i _ -> i < d) (List.map (fun v -> (c, v)) others))

(* At fixed (master, round, vertex, degree) points, the kernels' draws
   are [Keyed]'s: one COBRA round from the single vertex [c] reaches
   exactly the neighbours the draws of [Keyed.position ~round ~vertex:c]
   pick, with as many transmissions as [Keyed] draws for the fan-out,
   and one round without replacement reaches the neighbours of Floyd's
   sample drawn from the same position.  Degrees 2^k and 2^k + 1 make
   the rejection loop run; the large masters, rounds and vertex ids
   reach the finaliser's high bits. *)
let test_kernel_draws_are_keyed () =
  List.iter
    (fun (master, round, c, d) ->
      let n = max (c + 1) (d + 1) in
      let g = star ~n ~c ~d in
      let current = Bitset.of_list n [ c ] and next = Bitset.create n in
      let k = Keyed.create ~master in
      let point = Printf.sprintf "master=%d round=%d vertex=%d degree=%d" master round c d in
      List.iter
        (fun (label, branching, lazy_) ->
          Keyed.position k ~round ~vertex:c;
          let fanout =
            match branching with
            | Process.Fixed b -> b
            | Process.Bernoulli rho -> if Keyed.bernoulli k rho then 2 else 1
          in
          let expected =
            List.sort_uniq compare
              (List.init fanout (fun _ ->
                   if lazy_ && Keyed.bool k then c
                   else Graph.neighbor g c (Keyed.int_below k d)))
          in
          let ctx = Process.make_keyed_ctx g ~master in
          let tx = Process.cobra_step_keyed g ctx ~round ~branching ~lazy_ ~current ~next in
          Alcotest.(check (list int)) (point ^ " " ^ label) expected (Bitset.to_list next);
          check_int (point ^ " " ^ label ^ " transmissions") fanout tx)
        [
          ("b=1", Process.Fixed 1, false);
          ("b=2", Process.Fixed 2, false);
          ("b=3", Process.Fixed 3, false);
          ("rho=0.5", Process.Bernoulli 0.5, false);
          ("b=2 lazy", Process.Fixed 2, true);
          ("rho=0.5 lazy", Process.Bernoulli 0.5, true);
        ];
      let b = min 3 (d - 1) in
      Keyed.position k ~round ~vertex:c;
      let chosen = Array.make b 0 in
      for i = 0 to b - 1 do
        let j = d - b + i in
        let r = Keyed.int_below k (j + 1) in
        chosen.(i) <- (if Array.exists (( = ) r) (Array.sub chosen 0 i) then j else r)
      done;
      let expected = List.sort compare (Array.to_list (Array.map (Graph.neighbor g c) chosen)) in
      let ctx = Process.make_keyed_ctx g ~master in
      ignore (Process.cobra_step_without_replacement g ctx ~round ~b ~current ~next : int);
      Alcotest.(check (list int))
        (Printf.sprintf "%s without replacement b=%d" point b)
        expected (Bitset.to_list next))
    [
      (2017, 3, 5, 7);
      (1, 1, 0, 2);
      (0, 1, 1, 3);
      (42, 100, 65_535, 3);
      (7, 12, 17, 5);
      (99, 1000, 1000, 64);
      (5, 2, 3, 65);
      (123_456_789, 77, 40_000, 1000);
      (max_int, 1 lsl 40, 9, 1025);
      (11, 5, 4095, 4097);
      (3, 4, 70_000, 65_537);
    ]

(* --- Every kernel held to the call chain it replaced --- *)

(* Graphs without isolated vertices but with degree-1 ones: a random
   tree plus random extra edges, or a star whose centre's degree (just
   above a power of two, or not) makes the rejection loop run; the
   centre sits at a random vertex. *)
let oracle_graph_gen =
  let open QCheck2.Gen in
  let tree =
    int_range 2 200 >>= fun n ->
    list_repeat (n - 1) nat >>= fun parents ->
    list_size (int_bound n) (pair (int_bound (n - 1)) (int_bound (n - 1))) >|= fun extra ->
    ( n,
      List.mapi (fun i p -> (i + 1, p mod (i + 1))) parents
      @ List.filter (fun (u, v) -> u <> v) extra )
  in
  let star =
    oneofl [ 2; 3; 5; 9; 17; 33; 65; 100; 129; 257; 513; 1025 ] >>= fun d ->
    int_bound d >|= fun c ->
    let leaves = List.filter (fun v -> v <> c) (List.init (d + 1) Fun.id) in
    (d + 1, List.map (fun v -> (c, v)) leaves)
  in
  oneof [ tree; star ]

type oracle_case = {
  n : int;
  edges : (int * int) list;
  members : int list;
  source : int;
  master : int;
  round : int;
}

let oracle_case_gen =
  let open QCheck2.Gen in
  oracle_graph_gen >>= fun (n, edges) ->
  float_bound_inclusive 1.0 >>= fun density ->
  list_repeat n (float_bound_exclusive 1.0) >>= fun coins ->
  int_bound (n - 1) >>= fun source ->
  int >>= fun master ->
  int_range 1 1_000_000 >|= fun round ->
  let members = List.concat (List.mapi (fun v x -> if x < density then [ v ] else []) coins) in
  { n; edges; members; source; master; round }

let print_oracle_case c =
  Printf.sprintf "n=%d source=%d master=%d round=%d members=[%s] edges=[%s]" c.n c.source c.master
    c.round
    (String.concat ";" (List.map string_of_int c.members))
    (String.concat ";" (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) c.edges))

let variants =
  List.concat_map
    (fun lazy_ ->
      List.map
        (fun (label, branching) -> ((if lazy_ then label ^ " lazy" else label), branching, lazy_))
        [
          ("b=1", Process.Fixed 1);
          ("b=2", Process.Fixed 2);
          ("b=3", Process.Fixed 3);
          ("rho=0", Process.Bernoulli 0.0);
          ("rho=0.5", Process.Bernoulli 0.5);
          ("rho=1", Process.Bernoulli 1.0);
        ])
    [ false; true ]

(* One round of every kernel, serial and on every pool width with every
   round sharded, equals the oracle's: the next set, the transmission
   count and the cardinal.  The contexts are reused across variants and
   kernels, so stale scratch state would show too. *)
let kernels_match_oracle pools =
  QCheck2.Test.make ~name:"kernels = Keyed_step_oracle" ~count:150 ~print:print_oracle_case
    oracle_case_gen (fun c ->
      let g = Graph.of_edges ~n:c.n c.edges in
      let current = Bitset.of_list c.n c.members in
      let master = c.master and round = c.round in
      let serial = Process.make_keyed_ctx g ~master in
      let ctxs =
        ("serial", serial)
        :: List.map
             (fun (width, pool) ->
               ( Printf.sprintf "%d worker(s)" width,
                 Process.make_keyed_ctx ~pool ~dense_threshold:1 g ~master ))
             pools
      in
      let same label (tx_oracle, oracle) (tx, next) =
        if not (tx = tx_oracle && Bitset.equal next oracle) then
          QCheck2.Test.fail_reportf "%s: oracle tx=%d card=%d %s; kernel tx=%d card=%d %s" label
            tx_oracle (Bitset.cardinal oracle)
            (Format.asprintf "%a" Bitset.pp oracle)
            tx (Bitset.cardinal next)
            (Format.asprintf "%a" Bitset.pp next)
      in
      let run step =
        let next = Bitset.create c.n in
        let tx = step next in
        (tx, next)
      in
      List.iter
        (fun (vlabel, branching, lazy_) ->
          let cobra =
            run (fun next ->
                Keyed_step_oracle.cobra_step g ~master ~round ~branching ~lazy_ ~current ~next)
          in
          let bips =
            run (fun next ->
                Keyed_step_oracle.bips_step g ~master ~round ~branching ~lazy_ ~source:c.source
                  ~current ~next;
                0)
          in
          let sis =
            run (fun next ->
                Keyed_step_oracle.sis_step g ~master ~round ~branching ~lazy_ ~current ~next;
                0)
          in
          List.iter
            (fun (clabel, ctx) ->
              let label kernel = Printf.sprintf "%s %s %s" kernel vlabel clabel in
              same (label "cobra") cobra
                (run (fun next ->
                     Process.cobra_step_keyed g ctx ~round ~branching ~lazy_ ~current ~next));
              same (label "bips") bips
                (run (fun next ->
                     Process.bips_step_keyed g ctx ~round ~branching ~lazy_ ~source:c.source
                       ~current ~next;
                     0));
              same (label "sis") sis
                (run (fun next ->
                     Process.sis_step_keyed g ctx ~round ~branching ~lazy_ ~current ~next;
                     0)))
            ctxs)
        variants;
      List.iter
        (fun b ->
          same
            (Printf.sprintf "without replacement b=%d" b)
            (run (fun next ->
                 Keyed_step_oracle.without_replacement_step g ~master ~round ~b ~current ~next))
            (run (fun next ->
                 Process.cobra_step_without_replacement g serial ~round ~b ~current ~next)))
        [ 1; 2; 3 ];
      true)

let rec with_pools widths f =
  match widths with
  | [] -> f []
  | width :: rest ->
      with_width width (fun pool -> with_pools rest (fun pools -> f ((width, pool) :: pools)))

let test_kernels_match_oracle () =
  with_pools pool_widths (fun pools ->
      let _, _, run = QCheck_alcotest.to_alcotest (kernels_match_oracle pools) in
      run ())

(* --- Pool-size invariance of the sharded kernels --- *)

let graphs = [ ("hypercube d=6", Gen.hypercube 6); ("torus 8x8", Gen.torus ~dims:[ 8; 8 ]) ]

(* Fingerprint of a detailed cover run: every field the runner reports. *)
let run_fingerprint (r : Cobra.run option) =
  match r with
  | None -> "censored"
  | Some r ->
      Printf.sprintf "rounds=%d tx=%d visited=%s active=%s" r.rounds r.transmissions
        (String.concat "," (Array.to_list (Array.map string_of_int r.visited_sizes)))
        (String.concat "," (Array.to_list (Array.map string_of_int r.active_sizes)))

let keyed_cover ?pool ~branching ~lazy_ g =
  run_fingerprint
    (Cobra.run_cover_detailed g (Rng.create 2017) ~branching ~lazy_ ?pool ~dense_threshold:1
       ~start:0 ())

let test_cobra_pool_invariance () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun (bname, branching, lazy_) ->
          let serial = keyed_cover ~branching ~lazy_ g in
          List.iter
            (fun width ->
              with_width width (fun pool ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s %s keyed, %d worker(s)" name bname width)
                    serial
                    (keyed_cover ~pool ~branching ~lazy_ g)))
            pool_widths)
        [
          ("b=2", Process.Fixed 2, false);
          ("b=3 lazy", Process.Fixed 3, true);
          ("rho=0.4", Process.Bernoulli 0.4, false);
        ])
    graphs

let keyed_infected ?pool g =
  Bips.infected_after g (Rng.create 99) ?pool ~dense_threshold:1 ~rounds:12 ~source:1 ()

let test_bips_pool_invariance () =
  List.iter
    (fun (name, g) ->
      let serial = keyed_infected g in
      List.iter
        (fun width ->
          with_width width (fun pool ->
              check_bool
                (Printf.sprintf "%s bips keyed set, %d worker(s)" name width)
                true
                (Bitset.equal serial (keyed_infected ~pool g))))
        pool_widths)
    graphs

let keyed_sis ?pool g =
  let initial = Bitset.of_list (Graph.n g) [ 0; 3; 5 ] in
  let outcome, sizes =
    Sis.run_trajectory g (Rng.create 123) ?pool ~dense_threshold:1 ~max_rounds:200 ~initial ()
  in
  let tag =
    match outcome with
    | Sis.Extinct r -> Printf.sprintf "extinct@%d" r
    | Sis.Saturated r -> Printf.sprintf "saturated@%d" r
    | Sis.Censored -> "censored"
  in
  tag ^ ":" ^ String.concat "," (Array.to_list (Array.map string_of_int sizes))

let test_sis_pool_invariance () =
  List.iter
    (fun (name, g) ->
      let serial = keyed_sis g in
      List.iter
        (fun width ->
          with_width width (fun pool ->
              Alcotest.(check string)
                (Printf.sprintf "%s sis keyed, %d worker(s)" name width)
                serial (keyed_sis ~pool g)))
        pool_widths)
    graphs

let test_dense_threshold_irrelevant () =
  (* The threshold decides scheduling, never results: serial sparse
     path vs forced sharded path must agree draw for draw. *)
  let g = Gen.hypercube 6 in
  let forced = keyed_cover ~branching:(Process.Fixed 2) ~lazy_:false g in
  let default_threshold =
    run_fingerprint
      (Cobra.run_cover_detailed g (Rng.create 2017) ~branching:(Process.Fixed 2) ~lazy_:false
         ~start:0 ())
  in
  Alcotest.(check string) "threshold does not change results" forced default_threshold

(* A frontier of [card] distinct vertices spread across the universe
   (stride coprime to n), so threshold-boundary tests touch more than
   the first word. *)
let spread_frontier n card =
  Bitset.of_list n (List.init card (fun i -> i * 97 mod n))

let test_dense_threshold_boundary () =
  (* Property at the scheduling crossover: for frontier cardinalities
     threshold-1 (serial path), threshold (serial path) and threshold+1
     (sharded path), a pinned-threshold pooled step must produce the
     same next set, cardinality and transmission count as the poolless
     serial step.  The universe (torus 10x10, n=100) is deliberately
     not a multiple of bits_per_word, so the sharded scan's last
     partial word is exercised too. *)
  let g = Gen.torus ~dims:[ 10; 10 ] in
  let n = Graph.n g in
  check_bool "n exercises a partial last word" true (n mod Bitset.bits_per_word <> 0);
  let threshold = 16 in
  List.iter
    (fun card ->
      let current = spread_frontier n card in
      check_int "frontier built with exact cardinality" card (Bitset.cardinal current);
      let step ?pool ?dense_threshold () =
        let ctx = Process.make_keyed_ctx ?pool ?dense_threshold g ~master:7 in
        let next = Bitset.create n in
        let tx =
          Process.cobra_step_keyed g ctx ~round:2 ~branching:(Process.Fixed 2) ~lazy_:false
            ~current ~next
        in
        (tx, next)
      in
      let tx_serial, next_serial = step () in
      List.iter
        (fun width ->
          with_width width (fun pool ->
              let tx_pool, next_pool = step ~pool ~dense_threshold:threshold () in
              let name what =
                Printf.sprintf "card=%d width=%d: %s" card width what
              in
              check_int (name "transmissions") tx_serial tx_pool;
              check_bool (name "next sets equal") true (Bitset.equal next_serial next_pool);
              check_int (name "cardinal repaired exactly")
                (Bitset.cardinal next_serial) (Bitset.cardinal next_pool)))
        [ 2; 3 ])
    [ threshold - 1; threshold; threshold + 1 ]

let test_scan_last_shard_edge () =
  (* keyed_scan_par (BIPS/SIS) writes [next] in word-aligned chunks;
     with n = 100 the final chunk covers a 37-bit partial word.  The
     sharded scan must agree with the serial loop on the set and on the
     accumulated cardinality for every pool width. *)
  let g = Gen.torus ~dims:[ 10; 10 ] in
  let n = Graph.n g in
  let current = spread_frontier n 40 in
  let bips ?pool ?dense_threshold () =
    let ctx = Process.make_keyed_ctx ?pool ?dense_threshold g ~master:31 in
    let next = Bitset.create n in
    Process.bips_step_keyed g ctx ~round:3 ~branching:(Process.Fixed 2) ~lazy_:false ~source:3
      ~current ~next;
    next
  in
  let sis ?pool ?dense_threshold () =
    let ctx = Process.make_keyed_ctx ?pool ?dense_threshold g ~master:31 in
    let next = Bitset.create n in
    Process.sis_step_keyed g ctx ~round:3 ~branching:(Process.Bernoulli 0.5) ~lazy_:true
      ~current ~next;
    next
  in
  let bips_serial = bips () in
  let sis_serial = sis () in
  List.iter
    (fun width ->
      with_width width (fun pool ->
          let bips_pool = bips ~pool ~dense_threshold:1 () in
          check_bool
            (Printf.sprintf "bips set, %d worker(s)" width)
            true (Bitset.equal bips_serial bips_pool);
          check_int
            (Printf.sprintf "bips cardinal, %d worker(s)" width)
            (Bitset.cardinal bips_serial) (Bitset.cardinal bips_pool);
          let sis_pool = sis ~pool ~dense_threshold:1 () in
          check_bool
            (Printf.sprintf "sis set, %d worker(s)" width)
            true (Bitset.equal sis_serial sis_pool);
          check_int
            (Printf.sprintf "sis cardinal, %d worker(s)" width)
            (Bitset.cardinal sis_serial) (Bitset.cardinal sis_pool)))
    pool_widths

(* --- Gossip runner (PUSH and PUSH-PULL) --- *)

(* The 2048-vertex hypercube is above the default dense threshold, so
   every PUSH-PULL round and the late PUSH rounds take the sharded path
   without a threshold override. *)
let test_gossip_runner_invariance () =
  let g = Gen.hypercube 11 in
  let run ?pool protocol =
    Cobra_core.Gossip.run_cover ?pool g (Rng.create 5) ~protocol ~start:0 ()
  in
  List.iter
    (fun (name, protocol) ->
      let serial = run protocol in
      check_bool (name ^ " covers") true (serial <> None);
      List.iter
        (fun width ->
          with_width width (fun pool ->
              check_bool
                (Printf.sprintf "%s, %d worker(s)" name width)
                true
                (serial = run ~pool protocol)))
        pool_widths)
    [ ("push", Cobra_core.Gossip.Push); ("push-pull", Cobra_core.Gossip.Push_pull) ]

(* --- Parallel spectral matvec --- *)

let test_matvec_pool_bit_identical () =
  let g = Gen.random_regular ~n:200 ~r:6 (Rng.create 3) in
  let n = Graph.n g in
  let rng = Rng.create 9 in
  let x = Array.init n (fun _ -> Rng.float01 rng -. 0.5) in
  let y_serial = Array.make n 0.0 and y_pool = Array.make n 0.0 in
  with_width 4 (fun pool ->
      let normalized = Cobra_spectral.Matvec.normalized_op g in
      Cobra_spectral.Matvec.apply normalized x y_serial;
      Cobra_spectral.Matvec.apply ~pool normalized x y_pool;
      for i = 0 to n - 1 do
        if not (Int64.equal (Int64.bits_of_float y_serial.(i)) (Int64.bits_of_float y_pool.(i)))
        then Alcotest.failf "normalized matvec row %d differs" i
      done;
      let transition = Cobra_spectral.Matvec.transition_op g in
      Cobra_spectral.Matvec.apply transition x y_serial;
      Cobra_spectral.Matvec.apply ~pool transition x y_pool;
      for i = 0 to n - 1 do
        if not (Int64.equal (Int64.bits_of_float y_serial.(i)) (Int64.bits_of_float y_pool.(i)))
        then Alcotest.failf "transition matvec row %d differs" i
      done;
      let l_serial = Cobra_spectral.Eigen.second_eigenvalue ~tol:1e-9 g in
      let l_pool = Cobra_spectral.Eigen.second_eigenvalue ~tol:1e-9 ~pool g in
      if not (Int64.equal (Int64.bits_of_float l_serial) (Int64.bits_of_float l_pool)) then
        Alcotest.failf "second_eigenvalue differs: %.17g vs %.17g" l_serial l_pool)

(* --- Estimators --- *)

let test_estimate_keyed_invariance () =
  (* Every width and both schedules — whole trials in parallel (trials
     >= width) and trials in turn with sharded rounds (trials < width,
     graph above the threshold) — give the same estimate. *)
  let g = Gen.hypercube 6 in
  let est ~width ~trials =
    with_width width (fun pool ->
        let r =
          Cobra_core.Estimate.cover_time ~pool ~dense_threshold:1 ~master_seed:5 ~trials g
        in
        let b =
          Cobra_core.Estimate.infection_time ~pool ~dense_threshold:1 ~master_seed:5 ~trials g
        in
        (r.summary.mean, r.median, r.mean_transmissions, b.summary.mean, b.q90))
  in
  List.iter
    (fun trials ->
      let serial = est ~width:1 ~trials in
      List.iter
        (fun width ->
          check_bool
            (Printf.sprintf "%d trials, %d worker(s)" trials width)
            true
            (serial = est ~width ~trials))
        pool_widths)
    [ 1; 3; 8 ]

let test_trial_master_replays () =
  (* A trial of an estimate replays through Cobra.run_cover at
     Estimate.trial_master. *)
  let g = Gen.torus ~dims:[ 8; 8 ] in
  let r =
    Pool.with_pool ~num_domains:0 (fun pool ->
        Cobra_core.Estimate.cover_time ~pool ~master_seed:9 ~trials:1 ~start:0 g)
  in
  let master = Cobra_core.Estimate.trial_master ~master_seed:9 ~trial:0 in
  match
    Cobra.run_cover g (Rng.create 0) ~rng_mode:(Process.Keyed { master }) ~start:0 ()
  with
  | Some rounds -> Alcotest.(check (float 0.0)) "trial 0" (float_of_int rounds) r.summary.mean
  | None -> Alcotest.fail "censored"

let () =
  Alcotest.run "keyed"
    [
      ( "stream",
        [
          Alcotest.test_case "replay" `Quick test_replay;
          Alcotest.test_case "distinct positions" `Quick test_distinct_positions;
          Alcotest.test_case "copy" `Quick test_copy_independent;
          Alcotest.test_case "int_below range" `Quick test_int_below_range;
          Alcotest.test_case "int_below uniformity" `Quick test_int_below_uniform_ish;
          Alcotest.test_case "bernoulli degenerate" `Quick test_bernoulli_degenerate;
          Alcotest.test_case "float01 range" `Quick test_float01_range;
          Alcotest.test_case "round_base hoist" `Quick test_round_base_hoist;
          Alcotest.test_case "batched draws" `Quick test_masked_and_run_draw_compatible;
          Alcotest.test_case "known answers" `Quick test_known_answers;
          Alcotest.test_case "draws allocate nothing" `Quick test_draws_allocate_nothing;
          Alcotest.test_case "dense steps allocate a constant" `Quick
            test_dense_steps_allocate_constant;
          Alcotest.test_case "kernel draws are Keyed's" `Quick test_kernel_draws_are_keyed;
          Alcotest.test_case "kernels = oracle" `Quick test_kernels_match_oracle;
        ] );
      ( "pool invariance",
        [
          Alcotest.test_case "cobra cover" `Quick test_cobra_pool_invariance;
          Alcotest.test_case "bips infected set" `Quick test_bips_pool_invariance;
          Alcotest.test_case "sis trajectory" `Quick test_sis_pool_invariance;
          Alcotest.test_case "dense threshold" `Quick test_dense_threshold_irrelevant;
          Alcotest.test_case "threshold boundary" `Quick test_dense_threshold_boundary;
          Alcotest.test_case "scan last-shard edge" `Quick test_scan_last_shard_edge;
          Alcotest.test_case "engine" `Quick test_gossip_runner_invariance;
          Alcotest.test_case "matvec + eigen" `Quick test_matvec_pool_bit_identical;
          Alcotest.test_case "estimate" `Quick test_estimate_keyed_invariance;
          Alcotest.test_case "trial master replay" `Quick test_trial_master_replays;
        ] );
    ]
