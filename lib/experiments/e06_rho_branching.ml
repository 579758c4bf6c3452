module Graph = Cobra_graph.Graph
module Table = Cobra_stats.Table
module Estimate = Cobra_core.Estimate
module Process = Cobra_core.Process

let rhos = [ 1.0; 0.75; 0.5; 0.25; 0.125 ]

let run ~obs ~pool ~master_seed ~scale =
  let cases, trials =
    match scale with
    | Experiment.Quick -> ([ ("regular-8", 128) ], 12)
    | Experiment.Full -> ([ ("regular-8", 256); ("complete", 256); ("torus2d", 256) ], 32)
  in
  let buf = Buffer.create 2048 in
  let all_ok = ref true in
  List.iter
    (fun (family, n) ->
      Buffer.add_string buf (Common.section (Printf.sprintf "%s, n = %d" family n));
      let g = Common.graph_of family ~n ~seed:master_seed in
      let t =
        Table.create
          [
            ("rho", Table.Right); ("E[b]", Table.Right); ("mean", Table.Right);
            ("q90", Table.Right); ("mean * rho^2", Table.Right);
          ]
      in
      let scaled = ref [] in
      List.iter
        (fun rho ->
          let est =
            Estimate.cover_time ~obs ~pool ~master_seed ~trials ~branching:(Process.Bernoulli rho) g
          in
          if est.censored > 0 then all_ok := false;
          let s = est.summary.mean *. rho *. rho in
          scaled := s :: !scaled;
          Table.add_row t
            [
              Table.cell_f rho; Table.cell_f (1.0 +. rho); Table.cell_f est.summary.mean;
              Table.cell_f est.q90; Table.cell_f s;
            ])
        rhos;
      Buffer.add_string buf (Table.render t);
      (* The 1/rho^2 scaling is an upper-bound statement: mean * rho^2
         must not blow up as rho shrinks.  (It may decrease: the true
         dependence is often milder than the bound.) *)
      let lo = List.fold_left Float.min infinity !scaled in
      let hi = List.fold_left Float.max 0.0 !scaled in
      let blowup = hi /. Float.max lo 1e-9 in
      let base = List.nth !scaled (List.length !scaled - 1) (* rho = 1 entry *) in
      let worst = hi /. base in
      if worst > 3.0 then all_ok := false;
      Buffer.add_string buf
        (Printf.sprintf
           "mean * rho^2 spread: max/min = %.2f; max/(rho=1 value) = %.2f (<= 3 expected: the 1/rho^2 envelope is not exceeded)\n"
           blowup worst))
    cases;
  Buffer.add_string buf (Printf.sprintf "\nverdict: %s\n" (Common.verdict !all_ok));
  Buffer.contents buf

let experiment =
  Experiment.make ~id:"e6" ~title:"Branching factor b = 1 + rho"
    ~claim:"the b = 2 cover-time bounds hold for b = 1 + rho with an extra 1/rho^2 factor" ~run
