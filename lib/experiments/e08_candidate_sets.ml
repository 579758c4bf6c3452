module Graph = Cobra_graph.Graph
module Table = Cobra_stats.Table
module Eigen = Cobra_spectral.Eigen
module Process = Cobra_core.Process
module Growth = Cobra_core.Growth

let run ~obs ~pool ~master_seed ~scale =
  let cases, trajectories =
    match scale with
    | Experiment.Quick -> ([ ("regular-8", 128) ], 60)
    | Experiment.Full -> ([ ("regular-4", 256); ("regular-8", 512); ("torus3d", 512) ], 200)
  in
  let buf = Buffer.create 2048 in
  let all_ok = ref true in
  List.iter
    (fun (family, n) ->
      let g = Common.graph_of family ~n ~seed:master_seed in
      let n_real = Graph.n g in
      let lambda = (Eigen.spectrum ~obs ~pool g).lambda in
      let target = (1.0 -. lambda) /. 2.0 in
      Buffer.add_string buf
        (Common.section
           (Printf.sprintf "%s, n = %d, lambda = %.4f, target |C|/|A| >= %.4f" family n_real
              lambda target));
      let obs = Growth.sample ~pool ~master_seed ~trajectories g in
      let bands = Growth.bands ~n:n_real ~lambda ~branching:(Process.Fixed 2) obs in
      let t =
        Table.create
          [
            ("|A| band", Table.Left); ("rounds", Table.Right);
            ("min |C|/|A| (|A| <= n/2)", Table.Right); ("ok", Table.Left);
          ]
      in
      List.iter
        (fun (b : Growth.band) ->
          if b.min_candidate_ratio <> infinity then begin
            let ok = b.min_candidate_ratio >= target in
            if not ok then all_ok := false;
            Table.add_row t
              [
                Printf.sprintf "[%d, %d)" b.lo b.hi; Table.cell_i b.count;
                Printf.sprintf "%.4f" b.min_candidate_ratio; (if ok then "yes" else "NO");
              ]
          end)
        bands;
      Buffer.add_string buf (Table.render t))
    cases;
  Buffer.add_string buf
    (Printf.sprintf
       "\nC_t is a deterministic function of A_{t-1}, so every observed round must satisfy the corollary — the check is on the minimum, not the mean\nverdict: %s\n"
       (Common.verdict !all_ok));
  Buffer.contents buf

let experiment =
  Experiment.make ~id:"e8" ~title:"Corollary 5.2 — candidate-set growth"
    ~claim:"|C_t| >= |A_{t-1}|(1 - lambda)/2 while the infection is at most half the graph" ~run
