module Graph = Cobra_graph.Graph
module Gen = Cobra_graph.Gen
module Gen_extra = Cobra_graph.Gen_extra
module Table = Cobra_stats.Table
module Estimate = Cobra_core.Estimate
module Regress = Cobra_stats.Regress
module Bounds = Cobra_core.Bounds

(* Section 7: "while our general bound of O(n^2 log n) is a significant
   improvement over the previous best bound of O(n^{11/4} log n), there
   are no known examples of the cover time omega(n log n)".  This probe
   measures cover/(n ln n) on every family in the registry plus a few
   hand-picked stress shapes, then size-sweeps the worst offenders to
   check their growth exponent stays at ~Theta(n log n). *)

(* Hand-picked stress shapes not in the registry ("broom" already is). *)
let stress_cases n =
  [
    ("double-star", Gen_extra.caterpillar ~spine:2 ~legs:((n - 2) / 2));
    ("caterpillar", Gen_extra.caterpillar ~spine:(n / 4) ~legs:3);
  ]

let run ~obs ~pool ~master_seed ~scale =
  let n, trials, sweep =
    match scale with
    | Experiment.Quick -> (128, 12, [ 64; 128; 256 ])
    | Experiment.Full -> (512, 32, [ 128; 256; 512; 1024 ])
  in
  let buf = Buffer.create 4096 in

  Buffer.add_string buf (Common.section (Printf.sprintf "cover / (n ln n) across families, n ~ %d" n));
  let measurements = ref [] in
  List.iter
    (fun (name, g) ->
      (* Families with rigid sizes (e.g. petersen) can realise far fewer
         vertices than requested; skip them to keep ratios comparable. *)
      if Graph.n g >= n / 2 then begin
        let est = Estimate.cover_time ~obs ~pool ~master_seed ~trials g in
        if est.censored = 0 then begin
          let ratio = est.summary.mean /. Bounds.walk_cover_lower ~n:(Graph.n g) in
          measurements := (name, Graph.n g, est.summary.mean, ratio) :: !measurements
        end
      end)
    (List.map (fun f -> (f, Common.graph_of f ~n ~seed:master_seed)) Gen.family_names
    @ stress_cases n);
  let sorted =
    List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare b a) !measurements
  in
  let t =
    Table.create
      [
        ("family", Table.Left); ("n", Table.Right); ("mean cover", Table.Right);
        ("cover/(n ln n)", Table.Right);
      ]
  in
  List.iter
    (fun (name, n_real, mean, ratio) ->
      Table.add_row t
        [ name; Table.cell_i n_real; Table.cell_f mean; Printf.sprintf "%.4f" ratio ])
    sorted;
  Buffer.add_string buf (Table.render t);
  let worst_name, _, _, worst_ratio = List.hd sorted in
  Buffer.add_string buf
    (Printf.sprintf "\nworst family: %s at cover/(n ln n) = %.3f\n" worst_name worst_ratio);

  (* Size-sweep the worst offender: if the conjecture holds for it, the
     log-log slope of cover vs n stays ~1 (n log n has slope 1 + o(1)). *)
  Buffer.add_string buf
    (Common.section (Printf.sprintf "size sweep of the worst family (%s)" worst_name));
  let t =
    Table.create
      [ ("n", Table.Right); ("mean cover", Table.Right); ("cover/(n ln n)", Table.Right) ]
  in
  let pts = ref [] in
  List.iter
    (fun n ->
      let g =
        match List.assoc_opt worst_name (List.map (fun (a, b) -> (a, b)) (stress_cases n)) with
        | Some g -> g
        | None -> Common.graph_of worst_name ~n ~seed:master_seed
      in
      let est = Estimate.cover_time ~obs ~pool ~master_seed ~trials g in
      if est.censored = 0 then begin
        pts := (float_of_int (Graph.n g), est.summary.mean) :: !pts;
        Table.add_row t
          [
            Table.cell_i (Graph.n g); Table.cell_f est.summary.mean;
            Printf.sprintf "%.4f" (est.summary.mean /. Bounds.walk_cover_lower ~n:(Graph.n g));
          ]
      end)
    sweep;
  Buffer.add_string buf (Table.render t);
  let fit =
    Regress.fit_loglog
      (Array.of_list (List.rev_map fst !pts))
      (Array.of_list (List.rev_map snd !pts))
  in
  (* Conjecture-consistent: bounded ratio and near-linear growth.  The
     slope tolerance absorbs the log factor and finite-size effects. *)
  (* n log n over one decade of finite sizes fits slopes ~1.1-1.2; allow
     Monte-Carlo slack on top.  A genuine omega(n log n) family (e.g.
     n^1.5) would show slope >= 1.5 and a growing ratio column. *)
  let ok = worst_ratio <= 10.0 && fit.slope <= 1.45 in
  Buffer.add_string buf
    (Printf.sprintf
       "\nlog-log slope of the worst family: %.3f (n log n predicts ~1.1 at these sizes)\n\
        no family exceeds cover = %.1f * n ln n — consistent with the O(n log n) conjecture\n\
        verdict: %s\n"
       fit.slope worst_ratio (Common.verdict ok));
  Buffer.contents buf

let experiment =
  Experiment.make ~id:"e16" ~title:"Extension — the O(n log n) worst-case conjecture"
    ~claim:
      "Section 7 conjectures worst-case COBRA cover time O(n log n); no family in the registry (including adversarial tree shapes) shows a larger growth rate"
    ~run
