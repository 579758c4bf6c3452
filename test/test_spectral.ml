(* Tests for the spectral machinery: the iterative solvers against
   closed forms and against the dense oracles of [Dense_oracle], plus
   conductance, mixing and a cospectral pair of graphs. *)

module Graph = Cobra_graph.Graph
module Gen = Cobra_graph.Gen
module Bitset = Cobra_bitset.Bitset
module Matvec = Cobra_spectral.Matvec
module Eigen = Cobra_spectral.Eigen
module Conductance = Cobra_spectral.Conductance
module Rng = Cobra_prng.Rng

let check_float msg ?(eps = 1e-6) expected actual = Alcotest.(check (float eps)) msg expected actual
let check_bool = Alcotest.(check bool)
let lambda g = (Eigen.spectrum g).lambda

(* --- Matvec --- *)

let test_transition_rowsums () =
  (* P applied to the all-ones vector is the all-ones vector. *)
  let g = Gen.petersen () in
  let x = Array.make 10 1.0 and y = Array.make 10 0.0 in
  Matvec.apply (Matvec.transition_op g) x y;
  Array.iter (fun v -> check_float "P 1 = 1" 1.0 v) y

let test_transition_path () =
  let g = Gen.path 3 in
  let x = [| 1.0; 0.0; 0.0 |] and y = Array.make 3 0.0 in
  Matvec.apply (Matvec.transition_op g) x y;
  (* (P x)(u) = average of x over N(u). *)
  check_float "end" 0.0 y.(0);
  check_float "middle" 0.5 y.(1);
  check_float "other end" 0.0 y.(2)

let test_normalized_symmetry () =
  (* <N x, y> = <x, N y> on a non-regular graph. *)
  let g = Gen.star 6 in
  let rng = Rng.create 3 in
  let x = Array.init 6 (fun _ -> Rng.float01 rng) in
  let y = Array.init 6 (fun _ -> Rng.float01 rng) in
  let nx = Array.make 6 0.0 and ny = Array.make 6 0.0 in
  let op = Matvec.normalized_op g in
  Matvec.apply op x nx;
  Matvec.apply op y ny;
  check_float "symmetric" ~eps:1e-12 (Matvec.dot nx y) (Matvec.dot x ny)

let test_stationary_eigenvector () =
  (* N (sqrt deg) = sqrt deg on any graph without isolated vertices. *)
  let g = Gen.lollipop ~clique:4 ~tail:3 in
  let pi = Matvec.stationary_direction g in
  let y = Array.make (Graph.n g) 0.0 in
  Matvec.apply (Matvec.normalized_op g) pi y;
  Array.iteri (fun i v -> check_float (Printf.sprintf "component %d" i) ~eps:1e-12 pi.(i) v) y

let test_vector_helpers () =
  let x = [| 3.0; 4.0 |] in
  check_float "norm2" 5.0 (Matvec.norm2 x);
  let y = [| 1.0; 1.0 |] in
  Matvec.axpy ~alpha:2.0 x y;
  check_float "axpy 0" 7.0 y.(0);
  check_float "axpy 1" 9.0 y.(1);
  Matvec.scale_to_unit x;
  check_float "unit norm" 1.0 (Matvec.norm2 x)

(* --- Eigenvalues: closed forms --- *)

let test_lambda_complete () =
  (* K_n: eigenvalues of P are 1 and -1/(n-1), so lambda = 1/(n-1). *)
  List.iter
    (fun n ->
      let g = Gen.complete n in
      check_float (Printf.sprintf "K%d" n) ~eps:1e-6
        (1.0 /. float_of_int (n - 1))
        (lambda g))
    [ 4; 7; 12 ]

let test_lambda_odd_cycle () =
  (* C_n (odd): eigenvalues cos(2 pi k / n); the largest magnitude below 1
     is |cos(pi (n-1)/n)| = cos(pi/n). *)
  let n = 9 in
  let g = Gen.cycle n in
  check_float "C9" ~eps:1e-6 (cos (Float.pi /. float_of_int n)) (lambda g)

let test_lambda_petersen () =
  (* Petersen adjacency spectrum: 3, 1 (x5), -2 (x4); P = A/3. *)
  check_float "petersen" ~eps:1e-6 (2.0 /. 3.0) (lambda (Gen.petersen ()))

let test_lambda_bipartite_is_one () =
  check_float "even cycle" ~eps:1e-4 1.0 (lambda (Gen.cycle 8));
  check_float "hypercube" ~eps:1e-4 1.0 (lambda (Gen.hypercube 3))

let test_lazy_gap_hypercube () =
  (* Lazy walk on the d-cube: lambda_2(P) = 1 - 2/d, so the lazy lambda is
     1 - 1/d and the lazy gap is 1/d. *)
  List.iter
    (fun d ->
      let g = Gen.hypercube d in
      check_float (Printf.sprintf "lazy gap d=%d" d) ~eps:1e-6
        (1.0 /. float_of_int d)
        (1.0 -. (Eigen.spectrum g).lazy_lambda))
    [ 3; 5; 7 ]

let test_second_eigenvector_residual () =
  let g = Gen.petersen () in
  let { Eigen.lambda2; vec2 = v; _ } = Eigen.spectrum g in
  check_float "lambda2 = 1/3" ~eps:1e-6 (1.0 /. 3.0) lambda2;
  (* Residual ||P v - lambda2 v|| should be tiny. *)
  let y = Array.make 10 0.0 in
  Matvec.apply (Matvec.transition_op g) v y;
  let res = ref 0.0 in
  Array.iteri (fun i x -> res := !res +. ((x -. (lambda2 *. v.(i))) ** 2.0)) y;
  check_bool "residual small" true (sqrt !res < 1e-5)

let test_dense_spectrum_known () =
  let eigs = Dense_oracle.dense_spectrum (Gen.complete 5) in
  check_float "top" ~eps:1e-9 1.0 eigs.(0);
  for i = 1 to 4 do
    check_float "bulk" ~eps:1e-9 (-0.25) eigs.(i)
  done;
  let cube = Dense_oracle.dense_spectrum (Gen.hypercube 3) in
  (* d = 3: eigenvalues (3 - 2k)/3 for k = 0..3 with binomial multiplicity. *)
  check_float "cube top" ~eps:1e-9 1.0 cube.(0);
  check_float "cube 2nd" ~eps:1e-9 (1.0 /. 3.0) cube.(1);
  check_float "cube last" ~eps:1e-9 (-1.0) cube.(7)

let test_singleton () =
  check_float "single vertex" 0.0 (lambda (Graph.of_edges ~n:1 []))

let lanczos_vs_dense_test =
  QCheck2.Test.make ~name:"lanczos matches dense solver" ~count:25
    QCheck2.Gen.(int_range 4 30)
    (fun n ->
      let rng = Rng.create (n * 7) in
      let p = Float.min 1.0 (3.0 *. log (float_of_int n) /. float_of_int n) in
      let g = Gen.connected_gnp ~n ~p rng in
      let iter = lambda g in
      let exact = Dense_oracle.second_eigenvalue_exact g in
      Float.abs (iter -. exact) < 1e-5)

(* --- Conductance --- *)

let test_of_set () =
  let g = Gen.cycle 8 in
  let s = Bitset.of_list 8 [ 0; 1; 2; 3 ] in
  (* cut = 2, vol = 8, total = 16 -> phi(S) = 2/8. *)
  check_float "cycle half" 0.25 (Conductance.of_set g s);
  Alcotest.check_raises "empty set"
    (Invalid_argument "Conductance.of_set: set must be proper and non-empty") (fun () ->
      ignore (Conductance.of_set g (Bitset.create 8)))

let test_exact_known () =
  (* P4: the best cut is an end pair {0,1}: cut 1, vol 3 -> 1/3. *)
  check_float "path4" ~eps:1e-9 (1.0 /. 3.0) (Conductance.exact (Gen.path 4));
  (* C6: halves give cut 2, vol 6 -> 1/3. *)
  check_float "cycle6" ~eps:1e-9 (1.0 /. 3.0) (Conductance.exact (Gen.cycle 6));
  (* K4: any balanced cut gives 4/6 = 2/3. *)
  check_float "K4" ~eps:1e-9 (2.0 /. 3.0) (Conductance.exact (Gen.complete 4));
  (* Star: every cut separates leaves from the hub at full conductance. *)
  check_float "star" ~eps:1e-9 1.0 (Conductance.exact (Gen.star 6));
  (* Barbell with a single connecting edge: S = one clique, cut 1,
     vol = 3*2+1 = 7 -> 1/7. *)
  check_float "barbell" ~eps:1e-9 (1.0 /. 7.0)
    (Conductance.exact (Gen.barbell ~clique:3 ~bridge:0))

let sweep_upper_bounds_exact_test =
  QCheck2.Test.make ~name:"sweep cut upper-bounds exact conductance" ~count:20
    QCheck2.Gen.(int_range 4 14)
    (fun n ->
      let rng = Rng.create (n * 13) in
      let p = Float.min 1.0 (3.5 *. log (float_of_int n) /. float_of_int n) in
      let g = Gen.connected_gnp ~n ~p rng in
      Conductance.sweep_of_vector g (Eigen.spectrum g).vec2 >= Conductance.exact g -. 1e-9)

let cheeger_test =
  QCheck2.Test.make ~name:"Cheeger: phi^2/2 <= 1 - lambda2 <= 2 phi" ~count:20
    QCheck2.Gen.(int_range 4 14)
    (fun n ->
      let rng = Rng.create (n * 17) in
      let p = Float.min 1.0 (3.5 *. log (float_of_int n) /. float_of_int n) in
      let g = Gen.connected_gnp ~n ~p rng in
      let phi = Conductance.exact g in
      let eigs = Dense_oracle.dense_spectrum g in
      let gap2 = 1.0 -. eigs.(1) in
      (* The classical inequalities relate the gap of lambda_2 (not the
         absolute lambda) to conductance. *)
      (phi *. phi /. 2.0) -. 1e-9 <= gap2 && gap2 <= (2.0 *. phi) +. 1e-9)

(* --- Mixing --- *)

module Mixing = Cobra_spectral.Mixing

(* [mixing_time] starts from point masses, whose TV distance to the
   stationary distribution pi(u) = d(u)/2m is 1 - pi(start). *)
let test_tv_basics () =
  let k2 = Gen.complete 2 in
  (* The lazy walk on K2 reaches pi = (1/2, 1/2) exactly in one step. *)
  Alcotest.(check (option int)) "identical" (Some 1) (Mixing.mixing_time ~lazy_:true ~eps:0.0 k2);
  (* The plain walk on K2 alternates between point masses, each at
     distance exactly 1/2. *)
  Alcotest.(check (option int)) "half" (Some 0) (Mixing.mixing_time ~eps:0.5 k2);
  Alcotest.(check (option int)) "never below half" None
    (Mixing.mixing_time ~eps:0.49 ~max_rounds:50 k2)

let test_stationary () =
  (* At t = 0 the worst start is the vertex of least stationary mass, at
     distance 1 - d(u)/2m: a leaf of the 5-vertex star (mass 1/8; the
     hub has 1/2) and any vertex of the Petersen graph (uniform 1/10). *)
  let worst_at_zero g tv =
    Mixing.mixing_time ~eps:(tv +. 1e-12) g = Some 0
    && Mixing.mixing_time ~eps:(tv -. 1e-12) g <> Some 0
  in
  check_bool "leaf mass" true (worst_at_zero (Gen.star 5) 0.875);
  check_bool "uniform on regular" true (worst_at_zero (Gen.petersen ()) 0.9)

let test_walk_distribution_mass () =
  (* The distribution operator [mixing_time] steps with conserves mass
     and agrees with naive stepping. *)
  let g = Gen.lollipop ~clique:4 ~tail:3 in
  let n = Graph.n g in
  let op = Matvec.distribution_op g in
  let x = Array.make n 0.0 and y = Array.make n 0.0 in
  x.(0) <- 1.0;
  for rounds = 1 to 20 do
    Matvec.apply op x y;
    Array.blit y 0 x 0 n;
    if List.mem rounds [ 1; 5; 20 ] then begin
      check_float "mass 1" ~eps:1e-12 1.0 (Array.fold_left ( +. ) 0.0 x);
      let naive = Dense_oracle.walk_distribution g ~start:0 ~rounds in
      Array.iteri (fun v p -> check_float "naive stepping" ~eps:1e-12 naive.(v) p) x
    end
  done

let test_mixing_complete () =
  (* K_n is within 1/(n-1) of uniform after one step. *)
  Alcotest.(check (option int)) "one step" (Some 1) (Mixing.mixing_time (Gen.complete 16))

let test_mixing_bipartite_never () =
  (* Non-lazy on an even cycle oscillates between parity classes. *)
  Alcotest.(check (option int)) "no mixing" None
    (Mixing.mixing_time ~max_rounds:500 (Gen.cycle 8));
  (* The lazy chain mixes fine. *)
  check_bool "lazy mixes" true (Mixing.mixing_time ~lazy_:true (Gen.cycle 8) <> None)

let test_mixing_spectral_relation () =
  (* t_mix(lazy) <= ln(n/eps) / gap_lazy, up to a small constant. *)
  let g = Gen.random_regular ~n:64 ~r:6 (Rng.create 8) in
  match Mixing.mixing_time ~lazy_:true g with
  | None -> Alcotest.fail "expander failed to mix"
  | Some t ->
      let gap = 1.0 -. (Eigen.spectrum g).lazy_lambda in
      let bound = log (64.0 /. 0.25) /. gap in
      check_bool (Printf.sprintf "t_mix %d <= 2 * spectral bound %.1f" t bound) true
        (float_of_int t <= 2.0 *. bound)

let test_mixing_monotone_in_rounds () =
  (* The worst-start distance decays monotonically, so a tighter
     threshold takes at least as many rounds; by t = 20 the lazy walk on
     the Petersen graph is within 0.01 of stationarity. *)
  let g = Gen.petersen () in
  let t eps = Option.get (Mixing.mixing_time ~lazy_:true ~eps g) in
  check_bool "decreasing" true (t 0.5 <= t 0.25 && t 0.25 <= t 0.01);
  check_bool "converged" true (t 0.01 <= 20)

(* --- Solver differentials: Lanczos vs oracles, pool determinism --- *)

module Lanczos = Cobra_spectral.Lanczos
module Pool = Cobra_parallel.Pool
module Obs = Cobra_obs.Obs
module Metrics = Cobra_obs.Metrics

let zoo () =
  [
    ("hypercube4", Gen.hypercube 4);
    ("cycle9", Gen.cycle 9);
    ("cycle8", Gen.cycle 8);
    ("complete12", Gen.complete 12);
    ("petersen", Gen.petersen ());
    ("bipartite5x7", Gen.complete_bipartite 5 7);
    ("star9", Gen.star 9);
    ("lollipop5+6", Gen.lollipop ~clique:5 ~tail:6);
    ("barbell6", Gen.barbell ~clique:6 ~bridge:3);
    ("regular8_64", Gen.random_regular ~n:64 ~r:8 (Rng.create 11));
  ]

let test_lanczos_matches_jacobi () =
  List.iter
    (fun (name, g) ->
      let l = lambda g in
      let j = Dense_oracle.second_eigenvalue_exact g in
      check_float name ~eps:1e-8 j l)
    (zoo ())

let test_sym_eig_qr_matches_jacobi () =
  let k = 13 in
  let rng = Rng.create 7 in
  let a = Array.init k (fun _ -> Array.make k 0.0) in
  for i = 0 to k - 1 do
    for j = i to k - 1 do
      let x = Rng.float01 rng -. 0.5 in
      a.(i).(j) <- x;
      a.(j).(i) <- x
    done
  done;
  let orig = Array.map Array.copy a in
  let e_j, _ = Dense_oracle.jacobi (Array.map Array.copy a) in
  let e_q, v_q = Lanczos.sym_eig_qr a in
  for i = 0 to k - 1 do
    check_float (Printf.sprintf "eig %d" i) ~eps:1e-10 e_j.(i) e_q.(i)
  done;
  (* QR eigenpairs satisfy A v = lambda v to machine precision. *)
  for j = 0 to k - 1 do
    for i = 0 to k - 1 do
      let s = ref 0.0 in
      for l = 0 to k - 1 do
        s := !s +. (orig.(i).(l) *. v_q.(l).(j))
      done;
      check_float (Printf.sprintf "residual %d,%d" i j) ~eps:1e-12 0.0
        (!s -. (e_q.(j) *. v_q.(i).(j)))
    done
  done

let test_pool_width_invariance () =
  (* Blocked matvec: above the parallelism threshold (nnz > 2^15), the
     result must be bit-identical for any pool width. *)
  let g = Gen.random_regular ~n:8192 ~r:8 (Rng.create 3) in
  let n = Graph.n g in
  let op = Matvec.normalized_op g in
  let x = Array.init n (fun i -> sin (float_of_int i)) in
  let serial = Array.make n 0.0 in
  Matvec.apply op x serial;
  List.iter
    (fun w ->
      Pool.with_pool ~num_domains:w (fun pool ->
          let y = Array.make n 0.0 in
          Matvec.apply ~pool op x y;
          check_bool (Printf.sprintf "matvec width %d" w) true (y = serial)))
    [ 1; 2; 4 ];
  (* Chunked reductions: vectors longer than the reduction chunk take
     the per-chunk path; partial sums combine in index order at any
     width, so pooled dot is bit-identical to serial. *)
  let m = 70_000 in
  let a = Array.init m (fun i -> cos (float_of_int i)) in
  let b = Array.init m (fun i -> sin (float_of_int (i * 7))) in
  let serial_dot = Matvec.dot a b in
  List.iter
    (fun w ->
      Pool.with_pool ~num_domains:w (fun pool ->
          check_bool
            (Printf.sprintf "dot width %d" w)
            true
            (Matvec.dot ~pool a b = serial_dot)))
    [ 1; 2; 4 ];
  (* And the full eigensolve built on both. *)
  let serial = Eigen.spectrum g in
  Pool.with_pool ~num_domains:2 (fun pool ->
      let pooled = Eigen.spectrum ~pool g in
      check_bool "eigensolve width 2" true
        (pooled.lambda = serial.lambda && pooled.vec2 = serial.vec2))

(* A starved matvec budget is the one way to reach non-convergence: the
   solve reports it in [stats] and in obs, and [lambda] is the clamped
   best estimate at that point. *)
let test_not_converged_typed () =
  let g = Gen.random_regular ~n:64 ~r:8 (Rng.create 4) in
  let obs = Obs.create () in
  let s = Eigen.spectrum ~obs ~max_iter:2 g in
  check_bool "not converged" false s.stats.converged;
  check_bool "best clamped" true (s.lambda >= 0.0 && s.lambda <= 1.0);
  check_bool "matvecs bounded" true (s.stats.matvecs >= 1);
  match List.assoc_opt "spectral/not_converged" (Metrics.snapshot (Obs.metrics obs)) with
  | Some (Metrics.Counter_v c) -> Alcotest.(check int) "counted" 1 c
  | _ -> Alcotest.fail "missing spectral/not_converged"

let test_obs_solver_counters () =
  let obs = Obs.create () in
  let g = Gen.petersen () in
  let counter name =
    match List.assoc_opt name (Metrics.snapshot (Obs.metrics obs)) with
    | Some (Metrics.Counter_v c) -> c
    | _ -> Alcotest.failf "missing counter %s" name
  in
  (* Every quantity comes from one solve, and each call makes exactly one. *)
  ignore (Eigen.spectrum ~obs g);
  Alcotest.(check int) "one solve" 1 (counter "spectral/solves_lanczos");
  check_bool "matvecs counted" true (counter "spectral/matvecs" > 0);
  ignore (Eigen.spectrum ~obs g);
  Alcotest.(check int) "one more solve" 2 (counter "spectral/solves_lanczos");
  let obs2 = Obs.create () in
  ignore (Cobra_core.Walk_theory.all_hitting_times ~obs:obs2 g);
  let snap2 = Metrics.snapshot (Obs.metrics obs2) in
  (match List.assoc_opt "walk/cg_solves" snap2 with
  | Some (Metrics.Counter_v c) -> check_bool "one cg solve per target" true (c = Graph.n g)
  | _ -> Alcotest.fail "missing walk/cg_solves")

let test_cg_matches_dense_oracle () =
  let module WT = Cobra_core.Walk_theory in
  List.iter
    (fun (name, g) ->
      let dense = Dense_oracle.all_hitting_times_dense g in
      let cg = WT.all_hitting_times g in
      let n = Graph.n g in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          check_float (Printf.sprintf "%s H(%d,%d)" name u v) ~eps:1e-5 dense.(u).(v) cg.(u).(v)
        done
      done)
    [
      ("petersen", Gen.petersen ());
      ("lollipop4+5", Gen.lollipop ~clique:4 ~tail:5);
      ("cycle11", Gen.cycle 11);
    ]

(* --- A cospectral pair: the Shrikhande graph and the 4x4 rook graph ---

   Both are strongly regular with parameters (16, 6, 2, 2), so P = A/6
   has the spectrum {1, 1/3 (x6), -1/3 (x9)} on each, yet they are not
   isomorphic.  Anything that depends on the graph only through lambda
   must agree across the pair. *)

module Gen_extra = Cobra_graph.Gen_extra
module Bounds = Cobra_core.Bounds

(* The Cayley graph of Z4 x Z4 with generators +-(1,0), +-(0,1), +-(1,1). *)
let shrikhande () =
  let id a b = (4 * (a land 3)) + (b land 3) in
  let edges = ref [] in
  for a = 0 to 3 do
    for b = 0 to 3 do
      List.iter
        (fun (da, db) -> edges := (id a b, id (a + da) (b + db)) :: !edges)
        [ (1, 0); (0, 1); (1, 1) ]
    done
  done;
  Graph.of_edges ~n:16 !edges

let rook4 () = Gen_extra.cartesian_product (Gen.complete 4) (Gen.complete 4)
let cospectral_pair () = [ ("shrikhande", shrikhande ()); ("rook4x4", rook4 ()) ]

let neighbourhood_has_triangle g v =
  let nb = Graph.neighbors g v in
  let k = Array.length nb in
  let found = ref false in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      for l = j + 1 to k - 1 do
        if
          Graph.mem_edge g nb.(i) nb.(j)
          && Graph.mem_edge g nb.(j) nb.(l)
          && Graph.mem_edge g nb.(i) nb.(l)
        then found := true
      done
    done
  done;
  !found

let test_cospectral_not_isomorphic () =
  let shr = shrikhande () and rook = rook4 () in
  List.iter
    (fun (name, g) ->
      check_bool (name ^ " is 6-regular on 16 vertices") true
        (Graph.n g = 16 && Graph.is_regular g && Graph.max_degree g = 6))
    (cospectral_pair ());
  for v = 0 to 15 do
    check_bool (Printf.sprintf "rook N(%d) has a triangle" v) true
      (neighbourhood_has_triangle rook v);
    check_bool (Printf.sprintf "shrikhande N(%d) is triangle-free" v) false
      (neighbourhood_has_triangle shr v)
  done

let test_cospectral_oracle_spectra () =
  let expected =
    Array.init 16 (fun i -> if i = 0 then 1.0 else if i <= 6 then 1.0 /. 3.0 else -1.0 /. 3.0)
  in
  let spectra =
    List.map (fun (name, g) -> (name, Dense_oracle.dense_spectrum g)) (cospectral_pair ())
  in
  List.iter
    (fun (name, eigs) ->
      Array.iteri
        (fun i e -> check_float (Printf.sprintf "%s eig %d" name i) ~eps:1e-12 e eigs.(i))
        expected)
    spectra;
  match spectra with
  | [ (_, a); (_, b) ] ->
      Array.iteri (fun i x -> check_float (Printf.sprintf "pair eig %d" i) ~eps:1e-12 x b.(i)) a
  | _ -> assert false

let test_cospectral_lanczos () =
  List.iter
    (fun (name, g) -> check_float name ~eps:1e-9 (1.0 /. 3.0) (lambda g))
    (cospectral_pair ())

let test_cospectral_regular_bound () =
  let bound g = Bounds.this_paper_regular ~n:16 ~r:6 ~lambda:(lambda g) in
  let closed = Bounds.this_paper_regular ~n:16 ~r:6 ~lambda:(1.0 /. 3.0) in
  let b_shr = bound (shrikhande ()) and b_rook = bound (rook4 ()) in
  check_float "shrikhande = rook" ~eps:(1e-9 *. closed) b_shr b_rook;
  check_float "shrikhande = closed form" ~eps:(1e-9 *. closed) closed b_shr

let () =
  Alcotest.run "spectral"
    [
      ( "matvec",
        [
          Alcotest.test_case "row sums" `Quick test_transition_rowsums;
          Alcotest.test_case "path action" `Quick test_transition_path;
          Alcotest.test_case "normalized symmetric" `Quick test_normalized_symmetry;
          Alcotest.test_case "stationary eigenvector" `Quick test_stationary_eigenvector;
          Alcotest.test_case "vector helpers" `Quick test_vector_helpers;
        ] );
      ( "eigen",
        [
          Alcotest.test_case "complete graphs" `Quick test_lambda_complete;
          Alcotest.test_case "odd cycle" `Quick test_lambda_odd_cycle;
          Alcotest.test_case "petersen" `Quick test_lambda_petersen;
          Alcotest.test_case "bipartite lambda = 1" `Quick test_lambda_bipartite_is_one;
          Alcotest.test_case "lazy gap hypercube" `Quick test_lazy_gap_hypercube;
          Alcotest.test_case "second eigenvector" `Quick test_second_eigenvector_residual;
          Alcotest.test_case "dense spectrum" `Quick test_dense_spectrum_known;
          Alcotest.test_case "singleton" `Quick test_singleton;
          QCheck_alcotest.to_alcotest lanczos_vs_dense_test;
        ] );
      ( "conductance",
        [
          Alcotest.test_case "of_set" `Quick test_of_set;
          Alcotest.test_case "exact known" `Quick test_exact_known;
          QCheck_alcotest.to_alcotest sweep_upper_bounds_exact_test;
          QCheck_alcotest.to_alcotest cheeger_test;
        ] );
      ( "mixing",
        [
          Alcotest.test_case "tv basics" `Quick test_tv_basics;
          Alcotest.test_case "stationary" `Quick test_stationary;
          Alcotest.test_case "mass conserved" `Quick test_walk_distribution_mass;
          Alcotest.test_case "complete one step" `Quick test_mixing_complete;
          Alcotest.test_case "bipartite never (plain)" `Quick test_mixing_bipartite_never;
          Alcotest.test_case "spectral relation" `Quick test_mixing_spectral_relation;
          Alcotest.test_case "monotone decay" `Quick test_mixing_monotone_in_rounds;
        ] );
      ( "solvers",
        [
          Alcotest.test_case "lanczos = jacobi on zoo" `Quick test_lanczos_matches_jacobi;
          Alcotest.test_case "sym_eig_qr = jacobi" `Quick test_sym_eig_qr_matches_jacobi;
          Alcotest.test_case "pool-width invariance" `Quick test_pool_width_invariance;
          Alcotest.test_case "typed not-converged" `Quick test_not_converged_typed;
          Alcotest.test_case "obs solver counters" `Quick test_obs_solver_counters;
          Alcotest.test_case "cg = dense oracle" `Quick test_cg_matches_dense_oracle;
        ] );
      ( "cospectral",
        [
          Alcotest.test_case "shrikhande vs rook: not isomorphic" `Quick
            test_cospectral_not_isomorphic;
          Alcotest.test_case "oracle spectra agree" `Quick test_cospectral_oracle_spectra;
          Alcotest.test_case "lanczos lambda = 1/3" `Quick test_cospectral_lanczos;
          Alcotest.test_case "regular bound agrees" `Quick test_cospectral_regular_bound;
        ] );
    ]
