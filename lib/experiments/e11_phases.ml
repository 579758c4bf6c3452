module Graph = Cobra_graph.Graph
module Table = Cobra_stats.Table
module Eigen = Cobra_spectral.Eigen
module Bips = Cobra_core.Bips
module Phases = Cobra_core.Phases

let run ~obs ~pool ~master_seed ~scale =
  let cases, trajectories =
    match scale with
    | Experiment.Quick -> ([ ("regular-8", 128) ], 20)
    | Experiment.Full -> ([ ("regular-8", 256); ("regular-8", 1024); ("regular-16", 1024) ], 60)
  in
  let t =
    Table.create
      [
        ("family", Table.Left); ("n", Table.Right); ("gap", Table.Right);
        ("threshold", Table.Right); ("start", Table.Right); ("bulk", Table.Right);
        ("tail", Table.Right); ("total", Table.Right); ("tail/(ln n / gap)", Table.Right);
      ]
  in
  let all_ok = ref true in
  List.iter
    (fun (family, n) ->
      let g = Common.graph_of family ~n ~seed:master_seed in
      let n_real = Graph.n g in
      let lambda = (Eigen.spectrum ~obs ~pool g).lambda in
      let gap = 1.0 -. lambda in
      let threshold = Phases.default_small_threshold ~n:n_real ~lambda in
      let split_codec =
        Cobra_parallel.Journal.(
          option
            (conv
               (fun { Phases.start_rounds; bulk_rounds; tail_rounds; small_threshold } ->
                 ((start_rounds, bulk_rounds), (tail_rounds, small_threshold)))
               (fun ((start_rounds, bulk_rounds), (tail_rounds, small_threshold)) ->
                 { Phases.start_rounds; bulk_rounds; tail_rounds; small_threshold })
               (pair (pair int_ int_) (pair int_ int_))))
      in
      let splits =
        Cobra_parallel.Montecarlo.run ~obs ~codec:split_codec ~pool ~master_seed
          ~trials:trajectories (fun ~trial rng ->
            ignore trial;
            match Bips.run_trajectory g rng ~source:0 () with
            | Some traj -> Some (Phases.split ~n:n_real ~small_threshold:threshold ~sizes:traj.sizes)
            | None -> None)
      in
      let splits = List.filter_map Fun.id (Array.to_list splits) in
      if List.length splits < trajectories then all_ok := false;
      let start, bulk, tail = Phases.mean_splits splits in
      let tail_scale = log (float_of_int n_real) /. gap in
      let tail_ratio = tail /. tail_scale in
      (* Lemma 4.3: tail is O(log n / gap) — with unit constant at these
         sizes the ratio should be comfortably below 1. *)
      if tail_ratio > 1.0 then all_ok := false;
      Table.add_row t
        [
          family; Table.cell_i n_real; Printf.sprintf "%.4f" gap; Table.cell_i threshold;
          Table.cell_f start; Table.cell_f bulk; Table.cell_f tail;
          Table.cell_f (start +. bulk +. tail); Printf.sprintf "%.3f" tail_ratio;
        ])
    cases;
  Table.render t
  ^ Printf.sprintf
      "\nphases: rounds to reach log n/gap (start), then n/4 (bulk), then completion (tail)\n\
       verdict: %s\n"
      (Common.verdict !all_ok)

let experiment =
  Experiment.make ~id:"e11" ~title:"Three-phase BIPS growth"
    ~claim:
      "BIPS infection grows through a short start phase, an exponential bulk, and an O(log n/(1-lambda)) tail (Lemma 4.3)"
    ~run
