module Graph = Cobra_graph.Graph
module Props = Cobra_graph.Props
module Table = Cobra_stats.Table
module Estimate = Cobra_core.Estimate
module Walk_theory = Cobra_core.Walk_theory
module Bounds = Cobra_core.Bounds

let families = [ "complete"; "cycle"; "path"; "star"; "binary-tree"; "hypercube"; "torus2d" ]

let run ~obs ~pool ~master_seed ~scale =
  let n, trials = match scale with Experiment.Quick -> (128, 12) | Experiment.Full -> (256, 32) in
  let buf = Buffer.create 2048 in
  let all_ok = ref true in

  Buffer.add_string buf (Common.section "max(log2 n, Diam) <= measured min cover");
  let t =
    Table.create
      [
        ("family", Table.Left); ("n", Table.Right); ("diam", Table.Right);
        ("lower bound", Table.Right); ("min cover", Table.Right); ("mean cover", Table.Right);
        ("ok", Table.Left);
      ]
  in
  List.iter
    (fun family ->
      let g = Common.graph_of family ~n ~seed:master_seed in
      let diam = Props.diameter g in
      let lower = Bounds.lower_bound ~n:(Graph.n g) ~diameter:diam in
      let est = Estimate.cover_time ~obs ~pool ~master_seed ~trials g in
      (* The theoretical statement bounds every sample, so compare the
         observed minimum; allow the ceiling effect on log2. *)
      let ok = est.summary.min >= Float.of_int (int_of_float lower) in
      if not ok then all_ok := false;
      Table.add_row t
        [
          family; Table.cell_i (Graph.n g); Table.cell_i diam; Table.cell_f lower;
          Table.cell_f est.summary.min; Table.cell_f est.summary.mean;
          (if ok then "yes" else "NO");
        ])
    families;
  Buffer.add_string buf (Table.render t);

  Buffer.add_string buf
    (Common.section
       "b = 1 needs Omega(n log n) steps; Matthews' bound and the b = 2 speedup");
  let t =
    Table.create
      [
        ("family", Table.Left); ("n", Table.Right); ("walk steps (mean)", Table.Right);
        ("n ln n", Table.Right); ("Matthews upper", Table.Right);
        ("COBRA rounds (mean)", Table.Right); ("speedup", Table.Right);
      ]
  in
  List.iter
    (fun family ->
      let g = Common.graph_of family ~n ~seed:master_seed in
      let walk = Estimate.walk_cover_time ~obs ~pool ~master_seed ~trials g in
      let cobra = Estimate.cover_time ~obs ~pool ~master_seed ~trials g in
      let nlogn = Bounds.walk_cover_lower ~n:(Graph.n g) in
      let matthews =
        Walk_theory.matthews_upper ~n:(Graph.n g)
          ~h_max:(Walk_theory.max_hitting_time ~obs ~pool g)
      in
      let walk_ratio = Common.ratio walk.summary.mean nlogn in
      (* Omega(n log n) with a known constant for these families: the
         measured mean should not be far below n ln n; and Matthews'
         theorem upper-bounds every family's measured mean. *)
      if walk_ratio < 0.2 then all_ok := false;
      if walk.summary.mean > matthews *. 1.05 then all_ok := false;
      Table.add_row t
        [
          family; Table.cell_i (Graph.n g); Table.cell_f walk.summary.mean; Table.cell_f nlogn;
          Table.cell_f matthews; Table.cell_f cobra.summary.mean;
          Table.cell_f (walk.summary.mean /. cobra.summary.mean);
        ])
    [ "complete"; "cycle"; "regular-8" ];
  Buffer.add_string buf (Table.render t);
  Buffer.add_string buf (Printf.sprintf "\nverdict: %s\n" (Common.verdict !all_ok));
  Buffer.contents buf

let experiment =
  Experiment.make ~id:"e9" ~title:"Lower bounds — diameter/log2 and the b = 1 walk"
    ~claim:
      "every b = 2 COBRA run needs >= max(log2 n, Diam(G)) rounds, and the b = 1 walk needs Omega(n log n) steps"
    ~run
