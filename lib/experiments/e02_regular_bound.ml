module Graph = Cobra_graph.Graph
module Table = Cobra_stats.Table
module Eigen = Cobra_spectral.Eigen
module Estimate = Cobra_core.Estimate
module Bounds = Cobra_core.Bounds

(* Regular, non-bipartite families: random r-regular expanders (big
   gap), 3-D tori with odd sides (moderate gap; even sides would be
   bipartite) and odd cycles (tiny gap). *)
let cases =
  [
    ("regular-3", ([ 66; 130 ], [ 66; 130; 258; 514 ]));
    ("regular-8", ([ 65; 129 ], [ 65; 129; 257; 513 ]));
    ("regular-16", ([ 65; 129 ], [ 65; 129; 257; 513 ]));
    ("torus3d", ([ 27; 125 ], [ 27; 125; 343 ]));
    ("cycle", ([ 65; 129 ], [ 65; 129; 257; 513 ]));
  ]

let run ~obs ~pool ~master_seed ~scale =
  let pick (q, f) = match scale with Experiment.Quick -> q | Experiment.Full -> f in
  let trials = match scale with Experiment.Quick -> 8 | Experiment.Full -> 24 in
  let t =
    Table.create
      [
        ("family", Table.Left); ("n", Table.Right); ("r", Table.Right); ("lambda", Table.Right);
        ("gap", Table.Right); ("mean", Table.Right); ("q90", Table.Right);
        ("bound", Table.Right); ("q90/bound", Table.Right);
      ]
  in
  let worst_ratio = ref 0.0 in
  let all_valid = ref true in
  List.iter
    (fun (family, ns) ->
      List.iter
        (fun n ->
          let g = Common.graph_of family ~n ~seed:master_seed in
          let lambda = (Eigen.spectrum ~obs ~pool g).lambda in
          if (not (Graph.is_regular g)) || lambda >= 1.0 then all_valid := false
          else begin
            let r = Graph.max_degree g in
            let est = Estimate.cover_time ~obs ~pool ~master_seed ~trials g in
            if est.censored > 0 then all_valid := false;
            let bound = Bounds.this_paper_regular ~n:(Graph.n g) ~r ~lambda in
            let ratio = Common.ratio est.q90 bound in
            if not (Float.is_nan ratio) then worst_ratio := Float.max !worst_ratio ratio;
            Table.add_row t
              [
                family; Table.cell_i (Graph.n g); Table.cell_i r; Table.cell_f lambda;
                Table.cell_f (1.0 -. lambda); Table.cell_f est.summary.mean;
                Table.cell_f est.q90; Table.cell_f bound; Table.cell_f ratio;
              ]
          end)
        (pick ns);
      Table.add_rule t)
    cases;
  let ok = !all_valid && !worst_ratio <= 1.0 in
  Table.render t
  ^ Printf.sprintf "\nworst q90/bound ratio: %.3f\nverdict: %s\n" !worst_ratio
      (Common.verdict ok)

let experiment =
  Experiment.make ~id:"e2" ~title:"Theorem 1.2 — regular-graph cover time"
    ~claim:"cover(u) = O((r/(1-lambda) + r^2) log n) w.h.p. on connected r-regular graphs" ~run
