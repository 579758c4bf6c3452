module Graph = Cobra_graph.Graph
module Table = Cobra_stats.Table
module Estimate = Cobra_core.Estimate
module Regress = Cobra_stats.Regress
module Bounds = Cobra_core.Bounds

let run ~obs ~pool ~master_seed ~scale =
  let ns, trials =
    match scale with
    | Experiment.Quick -> ([ 64; 128; 256 ], 8)
    | Experiment.Full -> ([ 64; 128; 256; 512; 1024 ], 24)
  in
  let buf = Buffer.create 4096 in
  let all_ok = ref true in

  (* (a) Complete graphs: measured / log n should stay flat. *)
  Buffer.add_string buf (Common.section "K_n: cover = O(log n)");
  let t = Table.create [ ("n", Table.Right); ("mean", Table.Right); ("mean/ln n", Table.Right) ] in
  let ratios = ref [] in
  List.iter
    (fun n ->
      let g = Common.graph_of "complete" ~n ~seed:master_seed in
      let est = Estimate.cover_time ~obs ~pool ~master_seed ~trials g in
      let r = est.summary.mean /. Bounds.dutta_complete ~n in
      ratios := r :: !ratios;
      Table.add_row t [ Table.cell_i n; Table.cell_f est.summary.mean; Table.cell_f r ])
    ns;
  let flatness = List.fold_left Float.max 0.0 !ratios /. List.fold_left Float.min infinity !ratios in
  if flatness > 2.0 then all_ok := false;
  Buffer.add_string buf (Table.render t);
  Buffer.add_string buf
    (Printf.sprintf "max/min of (mean / ln n) = %.2f (flat ratio => Theta(log n) shape)\n" flatness);

  (* (b) Constant-degree expanders: the SPAA'13 bound is O(log^2 n); the
     PODC'16/this-paper refinement brings it to O(log n).  The measured
     poly-log exponent must stay below 2. *)
  Buffer.add_string buf (Common.section "3-regular expanders: cover = O(log^2 n)");
  let t = Table.create [ ("n", Table.Right); ("mean", Table.Right); ("mean/ln n", Table.Right);
                         ("mean/ln^2 n", Table.Right) ] in
  let pts = ref [] in
  List.iter
    (fun n ->
      let n = if n mod 2 = 1 then n + 1 else n in
      let g = Common.graph_of "regular-3" ~n ~seed:master_seed in
      let est = Estimate.cover_time ~obs ~pool ~master_seed ~trials g in
      pts := (float_of_int n, est.summary.mean) :: !pts;
      Table.add_row t
        [
          Table.cell_i n; Table.cell_f est.summary.mean;
          Table.cell_f (est.summary.mean /. Bounds.dutta_complete ~n);
          Table.cell_f (est.summary.mean /. Bounds.dutta_expander ~n);
        ])
    ns;
  let fit =
    Regress.fit_exponent_vs_log
      (Array.of_list (List.rev_map fst !pts))
      (Array.of_list (List.rev_map snd !pts))
  in
  if fit.slope >= 2.0 then all_ok := false;
  Buffer.add_string buf (Table.render t);
  Buffer.add_string buf
    (Printf.sprintf "fitted poly-log exponent %.2f (R^2 = %.3f); bound exponent 2\n" fit.slope
       fit.r2);

  (* (c) Tori: cover ~ n^{1/D} up to polylogs; log-log slopes. *)
  List.iter
    (fun (family, dim) ->
      Buffer.add_string buf
        (Common.section (Printf.sprintf "%d-D torus: cover = ~O(n^{1/%d})" dim dim));
      let t =
        Table.create
          [ ("n", Table.Right); ("mean", Table.Right); ("n^{1/D}", Table.Right);
            ("mean/n^{1/D}", Table.Right) ]
      in
      let pts = ref [] in
      List.iter
        (fun n ->
          let g = Common.graph_of family ~n ~seed:master_seed in
          let n_real = Graph.n g in
          let est = Estimate.cover_time ~obs ~pool ~master_seed ~trials g in
          let ref_curve = Bounds.dutta_grid ~n:n_real ~dim in
          pts := (float_of_int n_real, est.summary.mean) :: !pts;
          Table.add_row t
            [
              Table.cell_i n_real; Table.cell_f est.summary.mean; Table.cell_f ref_curve;
              Table.cell_f (est.summary.mean /. ref_curve);
            ])
        ns;
      let fit =
        Regress.fit_loglog
          (Array.of_list (List.rev_map fst !pts))
          (Array.of_list (List.rev_map snd !pts))
      in
      (* Slope should be near 1/D; allow polylog drift upward. *)
      let target = 1.0 /. float_of_int dim in
      if fit.slope > target +. 0.25 then all_ok := false;
      Buffer.add_string buf (Table.render t);
      Buffer.add_string buf
        (Printf.sprintf "log-log slope %.3f (target ~%.3f + o(1), R^2 = %.3f)\n" fit.slope target
           fit.r2))
    [ ("torus2d", 2); ("torus3d", 3) ];

  Buffer.add_string buf (Printf.sprintf "\nverdict: %s\n" (Common.verdict !all_ok));
  Buffer.contents buf

let experiment =
  Experiment.make ~id:"e5" ~title:"Dutta et al. families — K_n, expanders, tori"
    ~claim:
      "COBRA covers K_n in O(log n), constant-degree expanders in O(log^2 n), and D-dim grids in ~O(n^{1/D})"
    ~run
