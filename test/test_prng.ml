(* Tests for the sequential generator (xoshiro256++ seeded through
   SplitMix64) behind [Rng]. *)

module Keyed = Cobra_prng.Keyed
module Rng = Cobra_prng.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Seed expansion ---

   Seeds are expanded with SplitMix64: the stream seeded at [k] is
   [Keyed.mix (k + Keyed.gamma * i)] for i = 0, 1, 2, ..., and trial
   [t] under master [m] is seeded at [Keyed.mix (m + Keyed.mix t)]. *)

let splitmix_stream seed count =
  List.init count (fun i -> Keyed.mix (Int64.add seed (Int64.mul (Int64.of_int i) Keyed.gamma)))

let test_splitmix_seed_sensitivity () =
  check_bool "different seeds diverge" false (Keyed.mix 1L = Keyed.mix 2L);
  let a = Rng.create 1 and b = Rng.create 2 in
  check_bool "different generators" false (Rng.keyed_master a = Rng.keyed_master b)

let test_seed_of_pair_distinct () =
  let seen = Hashtbl.create 1024 in
  let collisions = ref 0 in
  List.iter
    (fun master ->
      for trial = 0 to 499 do
        let s = Rng.keyed_master (Rng.for_trial ~master ~trial) in
        if Hashtbl.mem seen s then incr collisions else Hashtbl.add seen s ()
      done)
    [ 0; 1; 42; -7 ];
  check_int "no collisions over 2000 trial streams" 0 !collisions

let test_seed_of_pair_deterministic () =
  let a = Rng.for_trial ~master:99 ~trial:7 and b = Rng.for_trial ~master:99 ~trial:7 in
  for _ = 1 to 50 do
    check_int "stable mapping" (Rng.keyed_master a) (Rng.keyed_master b)
  done

(* --- xoshiro256++ --- *)

let test_xoshiro_deterministic () =
  let a = Rng.create 5 and b = Rng.create 5 in
  for _ = 1 to 200 do
    check_int "same stream" (Rng.keyed_master a) (Rng.keyed_master b)
  done

let test_int_below_range () =
  let g = Rng.create 11 in
  for _ = 1 to 10_000 do
    let v = Rng.int_below g 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_int_below_hits_all_values () =
  let g = Rng.create 3 in
  let seen = Array.make 7 false in
  for _ = 1 to 1000 do
    seen.(Rng.int_below g 7) <- true
  done;
  Array.iteri (fun i b -> check_bool (Printf.sprintf "value %d reached" i) true b) seen

let test_int_below_uniformity () =
  (* Chi-square with 6 dof at 60k draws; threshold ~22.5 is the 0.1%
     tail, so a correct generator fails this with negligible probability
     (and the seed is fixed anyway). *)
  let g = Rng.create 1234 in
  let k = 7 and draws = 70_000 in
  let counts = Array.make k 0 in
  for _ = 1 to draws do
    let v = Rng.int_below g k in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = float_of_int draws /. float_of_int k in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0.0 counts
  in
  check_bool (Printf.sprintf "chi-square %.2f < 22.5" chi2) true (chi2 < 22.5)

let test_int_below_one () =
  let g = Rng.create 9 in
  for _ = 1 to 10 do
    check_int "bound 1 gives 0" 0 (Rng.int_below g 1)
  done

let test_int_below_large_bound () =
  let g = Rng.create 77 in
  let bound = 1 lsl 40 in
  for _ = 1 to 1000 do
    let v = Rng.int_below g bound in
    check_bool "in range (large bound)" true (v >= 0 && v < bound)
  done

let test_int_below_invalid () =
  let g = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int_below: bound must be positive")
    (fun () -> ignore (Rng.int_below g 0))

(* The smear [Rng.int_below] computes its mask with equals the loop
   that defines it, [Keyed.mask_below]: for every n in [2, 2^16], and
   at 2^k - 1, 2^k and 2^k + 1 for every k up to 61, and at
   2^62 - 1 = max_int. *)
let test_mask_smear () =
  let check n =
    if Rng.mask_below n <> Keyed.mask_below n then
      Alcotest.failf "n=%d: smear %d, Keyed.mask_below %d" n (Rng.mask_below n)
        (Keyed.mask_below n)
  in
  for n = 2 to 1 lsl 16 do
    check n
  done;
  for k = 1 to 61 do
    List.iter (fun n -> if n >= 2 then check n) [ (1 lsl k) - 1; 1 lsl k; (1 lsl k) + 1 ]
  done;
  check max_int

let mask_smear_property =
  QCheck2.Test.make ~name:"mask smear = Keyed.mask_below" ~count:2000
    QCheck2.Gen.(int_range 2 max_int)
    (fun n -> Rng.mask_below n = Keyed.mask_below n)

let test_float01_range () =
  let g = Rng.create 8 in
  for _ = 1 to 10_000 do
    let x = Rng.float01 g in
    check_bool "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_float01_mean () =
  let g = Rng.create 21 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float01 g
  done;
  let mean = !sum /. float_of_int n in
  check_bool (Printf.sprintf "mean %.4f near 0.5" mean) true (Float.abs (mean -. 0.5) < 0.01)

let test_bernoulli_extremes () =
  let g = Rng.create 4 in
  for _ = 1 to 100 do
    check_bool "p=1 always true" true (Rng.bernoulli g 1.0);
    check_bool "p=0 always false" false (Rng.bernoulli g 0.0)
  done

let test_bernoulli_rate () =
  let g = Rng.create 13 in
  let n = 50_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli g 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check_bool (Printf.sprintf "rate %.4f near 0.3" rate) true (Float.abs (rate -. 0.3) < 0.02)

let test_shuffle_is_permutation () =
  let g = Rng.create 15 in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle_in_place g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 100 (fun i -> i)) sorted

let test_shuffle_moves_elements () =
  let g = Rng.create 16 in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle_in_place g a;
  let fixed = ref 0 in
  Array.iteri (fun i v -> if i = v then incr fixed) a;
  (* Expected number of fixed points is 1; 30 would be astronomical. *)
  check_bool "not identity" true (!fixed < 30)

(* --- Rng facade --- *)

let test_rng_for_trial_deterministic () =
  let a = Rng.for_trial ~master:5 ~trial:3 and b = Rng.for_trial ~master:5 ~trial:3 in
  for _ = 1 to 50 do
    check_int "same trial stream" (Rng.int_below a 1000) (Rng.int_below b 1000)
  done

let test_rng_trials_decorrelated () =
  let a = Rng.for_trial ~master:5 ~trial:0 and b = Rng.for_trial ~master:5 ~trial:1 in
  let agree = ref 0 in
  for _ = 1 to 100 do
    if Rng.int_below a 1_000_000 = Rng.int_below b 1_000_000 then incr agree
  done;
  check_bool "different trials diverge" true (!agree <= 1)

let test_rng_pick () =
  let g = Rng.create 2 in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let v = Rng.pick g arr in
    check_bool "picked element" true (Array.mem v arr)
  done;
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick g [||]))

(* --- Known answers ---

   The first outputs at fixed seeds, recorded before the states moved
   from mutable int64 record fields to unboxed bytes.  A change to the
   generators' storage must leave every one of them unchanged. *)

let test_splitmix_known_answers () =
  Alcotest.(check (list int64))
    "first three outputs"
    [ 1547611027431991965L; -3066016094752747373L; 3427440727199435966L ]
    (splitmix_stream 0x0123456789ABCDEFL 3);
  Alcotest.(check int64) "mix 0" (-2152535657050944081L) (Keyed.mix 0L);
  Alcotest.(check int64)
    "seed_of_pair 99 7" (-4712655488026822124L)
    (Keyed.mix (Int64.add 99L (Keyed.mix 7L)))

(* Draws of [Rng.create] and [Rng.for_trial] generators, recorded while
   the xoshiro256++ state and the SplitMix64 seed expander were modules
   of their own.  Arguments are evaluated right to left, so each draw is
   bound in order. *)
let check_draws name g ~keyed_master ~below_1000 ~below_2_40 ~float01 ~bools =
  let km = Rng.keyed_master g in
  let a = Rng.int_below g 1000 in
  let b = Rng.int_below g (1 lsl 40) in
  let f = Rng.float01 g in
  let c = List.init 3 (fun _ -> Rng.bool g) in
  check_int (name ^ " keyed_master") keyed_master km;
  check_int (name ^ " int_below 1000") below_1000 a;
  check_int (name ^ " int_below 2^40") below_2_40 b;
  Alcotest.(check (float 0.0)) (name ^ " float01") float01 f;
  Alcotest.(check (list bool)) (name ^ " bool") bools c

let test_xoshiro_known_answers () =
  check_draws "create 42" (Rng.create 42) ~keyed_master:3119950966640935472 ~below_1000:513
    ~below_2_40:886304910705 ~float01:0x1.1726a19d8f6f7p-1 ~bools:[ false; false; true ];
  check_draws "for_trial 2017 3"
    (Rng.for_trial ~master:2017 ~trial:3)
    ~keyed_master:863087856628944187 ~below_1000:488 ~below_2_40:504701042275
    ~float01:0x1.05e46bae575ccp-2 ~bools:[ false; false; true ];
  let r = Rng.create 7 in
  check_int "Rng keyed_master" 3497273318368968759 (Rng.keyed_master r);
  check_int "Rng int_below" 932 (Rng.int_below r 1000)

(* --- Allocation ---

   A draw that returns an [int] or a [bool] allocates nothing, so 10^5
   of them allocate no more than the measurement itself.  [float01]
   returns a float across a module boundary, which boxes it: two words a
   draw and nothing else. *)

let draws = 100_000

let test_rng_draws_allocate_nothing () =
  let g = Rng.create 1 and choices = [| 1; 2; 3 |] in
  List.iter
    (fun (name, draw) ->
      let w = Alloc.words (fun () -> for _ = 1 to draws do draw () done) in
      check_bool (Printf.sprintf "%s: %.0f minor words for %d draws" name w draws) true (w <= 64.))
    [
      ("int_below", fun () -> ignore (Sys.opaque_identity (Rng.int_below g 1000)));
      ("int_below 2^40", fun () -> ignore (Sys.opaque_identity (Rng.int_below g (1 lsl 40))));
      ("bool", fun () -> ignore (Sys.opaque_identity (Rng.bool g)));
      ("bernoulli", fun () -> ignore (Sys.opaque_identity (Rng.bernoulli g 0.3)));
      ("keyed_master", fun () -> ignore (Sys.opaque_identity (Rng.keyed_master g)));
      ("pick", fun () -> ignore (Sys.opaque_identity (Rng.pick g choices)));
    ];
  let w =
    Alloc.words (fun () ->
        for _ = 1 to draws do
          ignore (Sys.opaque_identity (Rng.float01 g))
        done)
  in
  check_bool
    (Printf.sprintf "float01: %.0f minor words" w)
    true
    (w <= (2. *. float_of_int draws) +. 64.);
  let a = Array.init 1000 Fun.id in
  let w = Alloc.words (fun () -> for _ = 1 to 100 do Rng.shuffle_in_place g a done) in
  check_bool (Printf.sprintf "shuffle_in_place: %.0f minor words" w) true (w <= 64.)

let () =
  Alcotest.run "prng"
    [
      ( "splitmix64",
        [
          Alcotest.test_case "seed sensitivity" `Quick test_splitmix_seed_sensitivity;
          Alcotest.test_case "seed_of_pair distinct" `Quick test_seed_of_pair_distinct;
          Alcotest.test_case "seed_of_pair deterministic" `Quick test_seed_of_pair_deterministic;
          Alcotest.test_case "known answers" `Quick test_splitmix_known_answers;
        ] );
      ( "xoshiro",
        [
          Alcotest.test_case "deterministic" `Quick test_xoshiro_deterministic;
          Alcotest.test_case "int_below range" `Quick test_int_below_range;
          Alcotest.test_case "int_below hits all" `Quick test_int_below_hits_all_values;
          Alcotest.test_case "int_below uniform" `Quick test_int_below_uniformity;
          Alcotest.test_case "int_below bound 1" `Quick test_int_below_one;
          Alcotest.test_case "int_below large bound" `Quick test_int_below_large_bound;
          Alcotest.test_case "int_below invalid" `Quick test_int_below_invalid;
          Alcotest.test_case "mask smear" `Quick test_mask_smear;
          QCheck_alcotest.to_alcotest mask_smear_property;
          Alcotest.test_case "float01 range" `Quick test_float01_range;
          Alcotest.test_case "float01 mean" `Quick test_float01_mean;
          Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "shuffle moves" `Quick test_shuffle_moves_elements;
          Alcotest.test_case "known answers" `Quick test_xoshiro_known_answers;
        ] );
      ( "rng",
        [
          Alcotest.test_case "for_trial deterministic" `Quick test_rng_for_trial_deterministic;
          Alcotest.test_case "trials decorrelated" `Quick test_rng_trials_decorrelated;
          Alcotest.test_case "pick" `Quick test_rng_pick;
          Alcotest.test_case "draws allocate nothing" `Quick test_rng_draws_allocate_nothing;
        ] );
    ]
