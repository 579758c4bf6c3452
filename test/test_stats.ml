(* Tests for the statistics toolkit. *)

module Summary = Cobra_stats.Summary
module Quantile = Cobra_stats.Quantile
module Regress = Cobra_stats.Regress
module Histogram = Cobra_stats.Histogram
module Table = Cobra_stats.Table
module Rng = Cobra_prng.Rng

let check_float msg ?(eps = 1e-9) expected actual = Alcotest.(check (float eps)) msg expected actual
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Summary --- *)

let test_summary_known () =
  let s = Summary.of_array [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_int "count" 8 s.count;
  check_float "mean" 5.0 s.mean;
  (* population variance is 4; the unbiased sample variance is 32/7. *)
  check_float "variance" (32.0 /. 7.0) s.variance;
  check_float "min" 2.0 s.min;
  check_float "max" 9.0 s.max

let test_summary_empty_and_single () =
  (* No observations: no estimate of anything, not a zero spread. *)
  let e = Summary.of_array [||] in
  check_int "empty count" 0 e.count;
  List.iter
    (fun (name, x) -> check_bool (name ^ " nan when empty") true (Float.is_nan x))
    [ ("mean", e.mean); ("variance", e.variance); ("stddev", e.stddev); ("min", e.min); ("max", e.max) ];
  check_bool "ci95 when empty unavailable" true (Float.is_nan (Summary.mean_confidence95 e));
  let one = Summary.of_array [| 42.0 |] in
  check_float "single mean" 42.0 one.mean;
  check_float "single variance" 0.0 one.variance;
  check_bool "ci95 for n<2 unavailable" true (Float.is_nan (Summary.mean_confidence95 one))

let test_summary_pp () =
  let s = Summary.of_array [| 1.0; 2.0; 3.0 |] in
  let str = Format.asprintf "%a" Summary.pp s in
  check_bool "pp nonempty" true (String.length str > 10);
  (* A single trial has no spread estimate: render as unavailable, not
     as a confidently exact "± 0.00". *)
  let contains ~sub s =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let single = Format.asprintf "%a" Summary.pp (Summary.of_array [| 42.0 |]) in
  check_bool "pp single-trial shows n/a" true (contains ~sub:"n/a" single);
  check_bool "pp single-trial hides fake zero width" false (contains ~sub:"0.00" single)

(* --- Quantile --- *)

let test_quantiles_known () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "median" 3.0 (Quantile.quantile xs 0.5);
  check_float "q0" 1.0 (Quantile.quantile xs 0.0);
  check_float "q1" 5.0 (Quantile.quantile xs 1.0);
  check_float "q25" 2.0 (Quantile.quantile xs 0.25);
  check_float "interpolated" 3.5 (Quantile.quantile xs 0.625)

let test_quantile_unsorted_input () =
  let xs = [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  check_float "median of unsorted" 3.0 (Quantile.quantile xs 0.5)

let test_quantile_even_count () =
  check_float "median interpolates" 2.5 (Quantile.quantile [| 1.0; 2.0; 3.0; 4.0 |] 0.5)

let test_quantile_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Quantile: empty sample") (fun () ->
      ignore (Quantile.quantile [||] 0.5));
  Alcotest.check_raises "bad q" (Invalid_argument "Quantile: q must be in [0, 1]") (fun () ->
      ignore (Quantile.quantile [| 1.0 |] 1.5))

let test_quantile_nan_ordering () =
  (* Float.compare gives nan a fixed place (below every number), so a
     sample containing nan still sorts deterministically. *)
  let xs = [| nan; 1.0; 3.0; 2.0 |] in
  check_float "q1 ignores the low-sorted nan" 3.0 (Quantile.quantile xs 1.0);
  check_bool "q0 lands on the nan" true (Float.is_nan (Quantile.quantile xs 0.0))

let test_quantiles_batch () =
  let xs = Array.init 101 float_of_int in
  match Quantile.quantiles xs [ 0.1; 0.5; 0.9 ] with
  | [ a; b; c ] ->
      check_float "q10" 10.0 a;
      check_float "q50" 50.0 b;
      check_float "q90" 90.0 c
  | _ -> Alcotest.fail "expected three quantiles"

(* --- Regress --- *)

let test_fit_exact_line () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = Array.map (fun x -> (2.5 *. x) -. 1.0) xs in
  let f = Regress.fit xs ys in
  check_float "slope" 2.5 f.slope;
  check_float "intercept" (-1.0) f.intercept;
  check_float "r2" 1.0 f.r2

let test_fit_loglog_power_law () =
  let xs = Array.init 10 (fun i -> float_of_int (i + 2)) in
  let ys = Array.map (fun x -> 3.0 *. (x ** 1.7)) xs in
  let f = Regress.fit_loglog xs ys in
  check_float "exponent recovered" ~eps:1e-9 1.7 f.slope;
  check_float "r2" ~eps:1e-9 1.0 f.r2

let test_fit_polylog () =
  let ns = Array.init 8 (fun i -> 2.0 ** float_of_int (i + 4)) in
  let ys = Array.map (fun n -> 5.0 *. (log n ** 3.0)) ns in
  let f = Regress.fit_exponent_vs_log ns ys in
  check_float "polylog exponent" ~eps:1e-9 3.0 f.slope

let test_fit_noise_r2 () =
  let xs = Array.init 50 (fun i -> float_of_int i) in
  let rng = Rng.create 12 in
  let ys = Array.map (fun x -> x +. (10.0 *. (Rng.float01 rng -. 0.5))) xs in
  let f = Regress.fit xs ys in
  check_bool "slope near 1" true (Float.abs (f.slope -. 1.0) < 0.1);
  check_bool "r2 < 1 with noise" true (f.r2 < 1.0)

let test_fit_constant_y_r2_nan () =
  (* Zero variance in y makes r2 = 0/0: the fit is exact but explains
     nothing, so goodness-of-fit is undefined — it must not read 1.0. *)
  let f = Regress.fit [| 1.0; 2.0; 3.0 |] [| 5.0; 5.0; 5.0 |] in
  check_float "slope" 0.0 f.slope;
  check_float "intercept" 5.0 f.intercept;
  check_bool "r2 is nan on constant y" true (Float.is_nan f.r2)

let test_fit_errors () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Regress.fit: length mismatch") (fun () ->
      ignore (Regress.fit [| 1.0 |] [| 1.0; 2.0 |]));
  Alcotest.check_raises "too few" (Invalid_argument "Regress.fit: need at least 2 points")
    (fun () -> ignore (Regress.fit [| 1.0 |] [| 1.0 |]));
  Alcotest.check_raises "zero variance" (Invalid_argument "Regress.fit: zero variance in x")
    (fun () -> ignore (Regress.fit [| 2.0; 2.0 |] [| 1.0; 2.0 |]));
  Alcotest.check_raises "negative loglog"
    (Invalid_argument "Regress.fit_loglog: coordinates must be positive") (fun () ->
      ignore (Regress.fit_loglog [| 1.0; -2.0 |] [| 1.0; 2.0 |]))

(* --- Histogram --- *)

let test_histogram_binning () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 in
  List.iter (Histogram.add h) [ 0.5; 1.5; 2.5; 9.9; -3.0; 42.0 ];
  let c = Histogram.counts h in
  (* Out-of-range observations are tracked separately — they must not
     contaminate the edge bins. *)
  check_int "bin 0 (in-range only)" 2 c.(0);
  check_int "bin 1" 1 c.(1);
  check_int "bin 4 (in-range only)" 1 c.(4);
  check_int "underflow" 1 (Histogram.underflow h);
  check_int "overflow" 1 (Histogram.overflow h);
  check_int "total still counts everything" 6 (Histogram.total h);
  let lo, hi = Histogram.bin_bounds h 1 in
  check_float "bin bounds lo" 2.0 lo;
  check_float "bin bounds hi" 4.0 hi

let test_histogram_of_array_and_render () =
  let h = Histogram.of_array ~bins:4 [| 1.0; 2.0; 3.0; 4.0 |] in
  check_int "total" 4 (Histogram.total h);
  check_int "no underflow from of_array" 0 (Histogram.underflow h);
  check_int "no overflow from of_array" 0 (Histogram.overflow h);
  let r = Histogram.render h in
  check_bool "render has bars" true (String.contains r '#');
  check_bool "no out-of-range lines" false
    (String.split_on_char '\n' r |> List.exists (fun l -> String.length l > 0 && l.[0] = '('))

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_histogram_render_out_of_range () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:2 in
  List.iter (Histogram.add h) [ -1.0; 5.0; 12.0; 99.0 ];
  let r = Histogram.render h in
  check_bool "underflow line" true (contains_substring r "(-inf,");
  check_bool "overflow line" true (contains_substring r "+inf)")

let test_histogram_errors () =
  Alcotest.check_raises "bins" (Invalid_argument "Histogram.create: bins must be >= 1") (fun () ->
      ignore (Histogram.create ~lo:0.0 ~hi:1.0 ~bins:0));
  Alcotest.check_raises "range" (Invalid_argument "Histogram.create: need hi > lo") (fun () ->
      ignore (Histogram.create ~lo:1.0 ~hi:1.0 ~bins:3));
  Alcotest.check_raises "empty" (Invalid_argument "Histogram.of_array: empty sample") (fun () ->
      ignore (Histogram.of_array [||]))

(* --- Table --- *)

let test_table_render () =
  let t = Table.create [ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "23456" ];
  let out = Table.render t in
  let lines = String.split_on_char '\n' out in
  (match lines with
  | header :: rule :: row1 :: row2 :: _ ->
      check_bool "header has name" true (String.length header > 0);
      check_bool "rule dashes" true (String.contains rule '-');
      (* Right-aligned numbers: widths equal across rows. *)
      check_int "aligned widths" (String.length row1) (String.length row2)
  | _ -> Alcotest.fail "expected at least 4 lines");
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Table.add_row: expected 2 cells, got 1") (fun () ->
      Table.add_row t [ "only-one" ])

let test_table_rule () =
  let t = Table.create [ ("a", Table.Left) ] in
  Table.add_row t [ "x" ];
  Table.add_rule t;
  Table.add_row t [ "y" ];
  let out = Table.render t in
  let dash_lines =
    List.filter (fun l -> String.length l > 0 && l.[1] = '-') (String.split_on_char '\n' out)
  in
  check_int "two rules (header + explicit)" 2 (List.length dash_lines)

let test_cells () =
  Alcotest.(check string) "integer float" "12" (Table.cell_f 12.0);
  Alcotest.(check string) "small float" "3.142" (Table.cell_f 3.14159);
  Alcotest.(check string) "mid float" "31.4" (Table.cell_f 31.4159);
  Alcotest.(check string) "big float" "31416" (Table.cell_f 31415.9);
  Alcotest.(check string) "nan" "-" (Table.cell_f nan);
  Alcotest.(check string) "int" "7" (Table.cell_i 7)

(* --- properties --- *)

let summary_matches_direct_test =
  QCheck2.Test.make ~name:"Welford matches direct computation" ~count:100
    QCheck2.Gen.(list_size (int_range 2 200) (float_bound_inclusive 1000.0))
    (fun xs ->
      let a = Array.of_list xs in
      let s = Summary.of_array a in
      let n = float_of_int (Array.length a) in
      let mean = Array.fold_left ( +. ) 0.0 a /. n in
      let var =
        Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 a /. (n -. 1.0)
      in
      Float.abs (s.mean -. mean) < 1e-6 && Float.abs (s.variance -. var) < 1e-4)

let quantile_bounds_test =
  QCheck2.Test.make ~name:"quantiles stay within sample range" ~count:100
    QCheck2.Gen.(
      pair (list_size (int_range 1 50) (float_bound_inclusive 100.0)) (float_bound_inclusive 1.0))
    (fun (xs, q) ->
      let a = Array.of_list xs in
      let v = Quantile.quantile a q in
      let lo = Array.fold_left Float.min a.(0) a and hi = Array.fold_left Float.max a.(0) a in
      v >= lo -. 1e-12 && v <= hi +. 1e-12)

let () =
  Alcotest.run "stats"
    [
      ( "summary",
        [
          Alcotest.test_case "known values" `Quick test_summary_known;
          Alcotest.test_case "empty/single" `Quick test_summary_empty_and_single;
          Alcotest.test_case "pp" `Quick test_summary_pp;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "known" `Quick test_quantiles_known;
          Alcotest.test_case "unsorted" `Quick test_quantile_unsorted_input;
          Alcotest.test_case "even count" `Quick test_quantile_even_count;
          Alcotest.test_case "errors" `Quick test_quantile_errors;
          Alcotest.test_case "nan ordering" `Quick test_quantile_nan_ordering;
          Alcotest.test_case "batch" `Quick test_quantiles_batch;
        ] );
      ( "regress",
        [
          Alcotest.test_case "exact line" `Quick test_fit_exact_line;
          Alcotest.test_case "power law" `Quick test_fit_loglog_power_law;
          Alcotest.test_case "polylog" `Quick test_fit_polylog;
          Alcotest.test_case "noise" `Quick test_fit_noise_r2;
          Alcotest.test_case "constant y" `Quick test_fit_constant_y_r2_nan;
          Alcotest.test_case "errors" `Quick test_fit_errors;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "binning" `Quick test_histogram_binning;
          Alcotest.test_case "of_array/render" `Quick test_histogram_of_array_and_render;
          Alcotest.test_case "out-of-range render" `Quick test_histogram_render_out_of_range;
          Alcotest.test_case "errors" `Quick test_histogram_errors;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "rules" `Quick test_table_rule;
          Alcotest.test_case "cells" `Quick test_cells;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest summary_matches_direct_test;
          QCheck_alcotest.to_alcotest quantile_bounds_test;
        ] );
    ]
