module Bitset = Cobra_bitset.Bitset
module Graph = Cobra_graph.Graph
module Table = Cobra_stats.Table
module Duality = Cobra_core.Duality
module Process = Cobra_core.Process

(* (name, graph builder, C, v, horizons): small instances where the miss
   probabilities move through the whole (0,1) range across the chosen
   horizons, so agreement is informative at every row. *)
let cases master_seed =
  let gr name n = Common.graph_of name ~n ~seed:master_seed in
  [
    ("path8", gr "path" 8, [ 7 ], 0, [ 0; 4; 7; 10; 16 ]);
    ("cycle9", gr "cycle" 9, [ 4 ], 0, [ 1; 3; 5; 9 ]);
    ("petersen", gr "petersen" 10, [ 6 ], 0, [ 1; 2; 3; 5 ]);
    ("K8", gr "complete" 8, [ 3; 5 ], 0, [ 0; 1; 2 ]);
    ("grid 4x4", Cobra_graph.Gen.grid ~dims:[ 4; 4 ], [ 15 ], 0, [ 2; 4; 6; 10 ]);
  ]

let variants = [ ("b=2", Process.Fixed 2, false); ("b=1.5", Process.Bernoulli 0.5, false);
                 ("lazy b=2", Process.Fixed 2, true) ]

(* Exact side-channel: on graphs small enough for the subset chains,
   both sides of the identity are computed in closed form (Moebius
   inversion for COBRA, factorised kernel for BIPS) and must agree to
   floating-point rounding.  See Cobra_exact.Duality_exact. *)
let exact_cases master_seed =
  let gr name n = Common.graph_of name ~n ~seed:master_seed in
  [
    ("path6", gr "path" 6, 1 lsl 5, 0);
    ("cycle7", gr "cycle" 7, 1 lsl 3, 0);
    ("K6", gr "complete" 6, (1 lsl 2) lor (1 lsl 5), 0);
    ("petersen", gr "petersen" 10, 1 lsl 7, 1);
    ("grid 3x3", Cobra_graph.Gen.grid ~dims:[ 3; 3 ], 1 lsl 8, 0);
  ]

(* The 15 cells share no state, so they run on the pool; each gap is
   written by index and the table is rendered in case order. *)
let run_exact ~pool master_seed =
  let cells =
    Array.of_list
      (List.concat_map
         (fun case -> List.map (fun variant -> (case, variant)) variants)
         (exact_cases master_seed))
  in
  let gaps =
    Cobra_parallel.Pool.parallel_init pool (Array.length cells)
      (fun i ->
        let (_, g, c0, v), (_, branching, lazy_) = cells.(i) in
        (Cobra_exact.Duality_exact.check g ~branching ~lazy_ ~c0 ~v ~horizon:12 ()).max_gap)
  in
  let t =
    Table.create
      [ ("graph", Table.Left); ("variant", Table.Left); ("max |gap| over T<=12", Table.Right) ]
  in
  Array.iteri
    (fun i ((name, _, _, _), (vname, _, _)) ->
      Table.add_row t [ name; vname; Printf.sprintf "%.2e" gaps.(i) ])
    cells;
  (Table.render t, Array.fold_left Float.max 0.0 gaps)

let run ~obs:_ ~pool ~master_seed ~scale =
  let trials = match scale with Experiment.Quick -> 2_000 | Experiment.Full -> 12_000 in
  let t =
    Table.create
      [
        ("graph", Table.Left); ("variant", Table.Left); ("T", Table.Right);
        ("cobra miss", Table.Right); ("bips miss", Table.Right); ("|gap|", Table.Right);
        ("stderr", Table.Right); ("ok", Table.Left);
      ]
  in
  let all_ok = ref true in
  List.iter
    (fun (name, g, c_members, v, ts) ->
      let c_set = Bitset.of_list (Graph.n g) c_members in
      List.iter
        (fun (vname, branching, lazy_) ->
          List.iteri
            (fun i horizon ->
              let seed = master_seed + (31 * i) + Hashtbl.hash (name, vname) in
              let e = Duality.check ~pool ~master_seed:seed ~trials ~branching ~lazy_ g ~c_set ~v
                  ~t:horizon
              in
              let gap = Float.abs (e.cobra_miss -. e.bips_miss) in
              let ok = gap <= (4.0 *. e.stderr) +. 0.01 in
              if not ok then all_ok := false;
              Table.add_row t
                [
                  name; vname; Table.cell_i horizon; Printf.sprintf "%.4f" e.cobra_miss;
                  Printf.sprintf "%.4f" e.bips_miss; Printf.sprintf "%.4f" gap;
                  Printf.sprintf "%.4f" e.stderr; (if ok then "yes" else "NO");
                ])
            ts)
        variants;
      Table.add_rule t)
    (cases master_seed);
  let exact_render, exact_worst = run_exact ~pool master_seed in
  let exact_ok = exact_worst < 1e-10 in
  Table.render t
  ^ Printf.sprintf
      "\nagreement threshold: |gap| <= 4 stderr + 0.01 (independent MC on both sides)\n"
  ^ Common.section "exact verification (subset Markov chains, machine precision)"
  ^ exact_render
  ^ Printf.sprintf
      "\nworst exact gap: %.2e (threshold 1e-10)\nverdict: %s\n" exact_worst
      (Common.verdict (!all_ok && exact_ok))

let experiment =
  Experiment.make ~id:"e3" ~title:"Theorem 1.3 — COBRA/BIPS duality"
    ~claim:"P(Hit(v) > T | C0 = C) equals P(C ∩ A_T = ∅ | A0 = {v}) for all C, v, T, b" ~run
