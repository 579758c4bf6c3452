module Graph = Cobra_graph.Graph
module Gen = Cobra_graph.Gen
module Table = Cobra_stats.Table
module Eigen = Cobra_spectral.Eigen
module Estimate = Cobra_core.Estimate
module Bounds = Cobra_core.Bounds
module Regress = Cobra_stats.Regress

(* The hypercube is bipartite, so the spectral parameter of the plain
   walk degenerates (lambda = 1); following the remark after Theorem 1.2
   the bounds are evaluated with the lazy gap (1 - lambda_2)/2 = 1/(2d),
   and the lazy COBRA process is measured alongside the plain one.
   Conductance is phi = 1/d (the dimension cut), matching the paper's
   "both phi and 1 - lambda are Theta(1/log n)". *)

let run ~obs ~pool ~master_seed ~scale =
  let dims, trials =
    match scale with
    | Experiment.Quick -> ([ 4; 6; 8 ], 8)
    | Experiment.Full -> ([ 4; 5; 6; 7; 8; 9; 10 ], 24)
  in
  let t =
    Table.create
      [
        ("d", Table.Right); ("n", Table.Right); ("lazy gap", Table.Right);
        ("plain mean", Table.Right); ("lazy mean", Table.Right);
        ("this paper", Table.Right); ("PODC'16", Table.Right); ("SPAA'16", Table.Right);
        ("lazy/thispaper", Table.Right);
      ]
  in
  let rows = ref [] in
  let ordering_ok = ref true in
  let within_bound = ref true in
  List.iter
    (fun d ->
      let g = Gen.hypercube d in
      let n = Graph.n g in
      let gap = 1.0 -. (Eigen.spectrum ~obs ~pool g).lazy_lambda in
      let lambda = 1.0 -. gap in
      let phi = 1.0 /. float_of_int d in
      let plain = Estimate.cover_time ~obs ~pool ~master_seed ~trials ~start:0 g in
      let lzy =
        Estimate.cover_time ~obs ~pool ~master_seed:(master_seed + 1) ~trials ~lazy_:true ~start:0 g
      in
      let this_paper = Bounds.this_paper_regular ~n ~r:d ~lambda in
      let podc = Bounds.podc16_regular ~n ~lambda in
      let spaa16 = Bounds.spaa16_regular ~n ~r:d ~phi in
      if not (this_paper <= podc && podc <= spaa16) then ordering_ok := false;
      let r = Common.ratio lzy.q90 this_paper in
      if Float.is_nan r || r > 1.0 then within_bound := false;
      rows := (float_of_int n, lzy.summary.mean) :: !rows;
      Table.add_row t
        [
          Table.cell_i d; Table.cell_i n; Printf.sprintf "%.4f" gap;
          Table.cell_f plain.summary.mean; Table.cell_f lzy.summary.mean;
          Table.cell_f this_paper; Table.cell_f podc; Table.cell_f spaa16; Table.cell_f r;
        ])
    dims;
  (* Poly-log growth exponent of the measured lazy cover time: the best
     upper bound here is log^3 n; the conjectured truth is log n, so the
     fitted exponent should stay well below 3. *)
  let ns = Array.of_list (List.rev_map fst !rows) in
  let ys = Array.of_list (List.rev_map snd !rows) in
  let fit = Regress.fit_exponent_vs_log ns ys in
  let ok = !ordering_ok && !within_bound && fit.slope < 3.0 in
  Table.render t
  ^ Printf.sprintf
      "\nmeasured lazy cover ~ log^k n with k = %.2f (R^2 = %.3f); paper's bound exponent: 3\n\
       bound ordering this paper < PODC'16 < SPAA'16: %b\nverdict: %s\n"
      fit.slope fit.r2 !ordering_ok (Common.verdict ok)

let experiment =
  Experiment.make ~id:"e4" ~title:"Hypercube — log^3 n vs log^4 n vs log^8 n"
    ~claim:
      "on the n = 2^d hypercube the three bounds are ordered O(log^3 n) < O(log^4 n) < O(log^8 n), and measured cover time is far below all three"
    ~run
