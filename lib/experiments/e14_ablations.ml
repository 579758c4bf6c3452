module Graph = Cobra_graph.Graph
module Bitset = Cobra_bitset.Bitset
module Table = Cobra_stats.Table
module Process = Cobra_core.Process
module Cobra = Cobra_core.Cobra
module Coalesce = Cobra_core.Coalesce
module Summary = Cobra_stats.Summary

(* Bespoke runner for the without-replacement variant (the library's
   runners implement the paper's with-replacement semantics only): the
   same keyed master draw and round loop as [Cobra.run_cover], with the
   ablation step. *)
let cover_without_replacement g rng ~start ~max_rounds =
  let n = Graph.n g in
  let ctx = Process.make_keyed_ctx g ~master:(Cobra_prng.Rng.keyed_master rng) in
  let current = Bitset.create n and next = Bitset.create n and visited = Bitset.create n in
  Bitset.add current start;
  Bitset.add visited start;
  let step ~round ~current ~next =
    ignore (Process.cobra_step_without_replacement g ctx ~round ~b:2 ~current ~next : int);
    Bitset.union_into ~into:visited next
  in
  fst
    (Cobra_core.Rounds.run ~max_rounds ~current ~next ~step ~stop:(fun _ ->
         Bitset.cardinal visited = n))

let mc ~obs ~pool ~master_seed ~trials f =
  let obs =
    Cobra_parallel.Montecarlo.run ~obs
      ~codec:Cobra_parallel.Journal.(option int_)
      ~pool ~master_seed ~trials (fun ~trial rng ->
        ignore trial;
        f rng)
  in
  let vals = List.filter_map Fun.id (Array.to_list obs) in
  (Summary.of_array (Array.of_list (List.map float_of_int vals)), List.length vals)

let run ~obs ~pool ~master_seed ~scale =
  let families, trials =
    match scale with
    | Experiment.Quick -> ([ ("regular-8", 128); ("cycle", 129) ], 16)
    | Experiment.Full -> ([ ("regular-8", 256); ("cycle", 257); ("complete", 256); ("torus3d", 343) ], 40)
  in
  let buf = Buffer.create 2048 in
  let all_ok = ref true in

  (* Ablation 1: with vs without replacement. *)
  Buffer.add_string buf (Common.section "sampling with vs without replacement (b = 2)");
  let t =
    Table.create
      [
        ("family", Table.Left); ("n", Table.Right); ("with repl (mean)", Table.Right);
        ("without repl (mean)", Table.Right); ("ratio", Table.Right);
      ]
  in
  List.iter
    (fun (family, n) ->
      let g = Common.graph_of family ~n ~seed:master_seed in
      let start = Cobra_core.Estimate.start_heuristic g in
      let max_rounds = Cobra.default_max_rounds g in
      let with_r, c1 =
        mc ~obs ~pool ~master_seed ~trials (fun rng -> Cobra.run_cover g rng ~start ())
      in
      let without_r, c2 =
        mc ~obs ~pool ~master_seed:(master_seed + 1) ~trials (fun rng ->
            cover_without_replacement g rng ~start ~max_rounds)
      in
      if c1 < trials || c2 < trials then all_ok := false;
      let ratio = with_r.mean /. without_r.mean in
      (* Without replacement never repeats a pick, so it is (weakly)
         faster; with replacement costs at most a small constant. *)
      if ratio < 0.95 || ratio > 2.5 then all_ok := false;
      Table.add_row t
        [
          family; Common.fmt_i (Graph.n g); Common.fmt_f with_r.mean;
          Common.fmt_f without_r.mean; Printf.sprintf "%.3f" ratio;
        ])
    families;
  Buffer.add_string buf (Table.render t);

  (* Ablation 2: laziness on non-bipartite graphs costs about 2x. *)
  Buffer.add_string buf (Common.section "plain vs lazy on non-bipartite graphs");
  let t =
    Table.create
      [
        ("family", Table.Left); ("n", Table.Right); ("plain (mean)", Table.Right);
        ("lazy (mean)", Table.Right); ("lazy/plain", Table.Right);
      ]
  in
  List.iter
    (fun (family, n) ->
      let g = Common.graph_of family ~n ~seed:master_seed in
      let start = Cobra_core.Estimate.start_heuristic g in
      let plain, _ = mc ~obs ~pool ~master_seed ~trials (fun rng -> Cobra.run_cover g rng ~start ()) in
      let lzy, _ =
        mc ~obs ~pool ~master_seed:(master_seed + 2) ~trials (fun rng ->
            Cobra.run_cover g rng ~lazy_:true ~start ())
      in
      let ratio = lzy.mean /. plain.mean in
      (* Laziness halves the useful sends; the slowdown should sit near 2
         and certainly inside [1, 4]. *)
      if ratio < 0.9 || ratio > 4.0 then all_ok := false;
      Table.add_row t
        [
          family; Common.fmt_i (Graph.n g); Common.fmt_f plain.mean; Common.fmt_f lzy.mean;
          Printf.sprintf "%.3f" ratio;
        ])
    families;
  Buffer.add_string buf (Table.render t);

  (* Ablation 3: coalescence waste by family — how much of the budget
     merging absorbs. *)
  Buffer.add_string buf (Common.section "coalescence accounting (b = 2)");
  let t =
    Table.create
      [
        ("family", Table.Left); ("n", Table.Right); ("waste", Table.Right);
        ("peak |C_t|/n", Table.Right); ("mean |C_t|/n", Table.Right);
      ]
  in
  List.iter
    (fun (family, n) ->
      let g = Common.graph_of family ~n ~seed:master_seed in
      let start = Cobra_core.Estimate.start_heuristic g in
      let rng = Cobra_prng.Rng.create master_seed in
      match Cobra.run_cover_detailed g rng ~start () with
      | None -> all_ok := false
      | Some run ->
          let s = Coalesce.of_run run in
          let nf = float_of_int (Graph.n g) in
          Table.add_row t
            [
              family; Common.fmt_i (Graph.n g); Printf.sprintf "%.3f" s.waste;
              Printf.sprintf "%.3f" (float_of_int s.peak_active /. nf);
              Printf.sprintf "%.3f" (s.mean_active /. nf);
            ])
    families;
  Buffer.add_string buf (Table.render t);
  Buffer.add_string buf (Printf.sprintf "\nverdict: %s\n" (Common.verdict !all_ok));
  Buffer.contents buf

let experiment =
  Experiment.make ~id:"e14" ~title:"Extension — process-definition ablations"
    ~claim:
      "with/without-replacement sampling and laziness change cover times by bounded constants only; coalescence absorbs a family-dependent fraction of the budget (extension beyond the paper's tables)"
    ~run
