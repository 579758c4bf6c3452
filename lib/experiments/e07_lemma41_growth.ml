module Graph = Cobra_graph.Graph
module Table = Cobra_stats.Table
module Eigen = Cobra_spectral.Eigen
module Process = Cobra_core.Process
module Growth = Cobra_core.Growth

let run ~obs ~pool ~master_seed ~scale =
  let n, trajectories =
    match scale with Experiment.Quick -> (128, 100) | Experiment.Full -> (512, 400)
  in
  let buf = Buffer.create 2048 in
  let all_ok = ref true in
  List.iter
    (fun (vname, branching, rho_label) ->
      let g =
        Cobra_graph.Gen.random_regular ~n ~r:8 (Cobra_prng.Rng.create (master_seed + 17))
      in
      let lambda = (Eigen.spectrum ~obs ~pool g).lambda in
      Buffer.add_string buf
        (Common.section
           (Printf.sprintf "random 8-regular, n = %d, lambda = %.4f, %s" n lambda rho_label));
      let obs = Growth.sample ~pool ~master_seed ~trajectories ~branching g in
      let bands = Growth.bands ~n ~lambda ~branching obs in
      let t =
        Table.create
          [
            ("|A| band", Table.Left); ("rounds", Table.Right); ("measured E growth", Table.Right);
            ("lemma bound", Table.Right); ("ok", Table.Left);
          ]
      in
      List.iter
        (fun (b : Growth.band) ->
          (* Sparse bands carry too much Monte-Carlo noise to judge. *)
          if b.count >= 30 then begin
            let ok = b.mean_growth >= b.lemma41_growth -. 0.05 in
            if not ok then all_ok := false;
            Table.add_row t
              [
                Printf.sprintf "[%d, %d)" b.lo b.hi; Table.cell_i b.count;
                Printf.sprintf "%.4f" b.mean_growth; Printf.sprintf "%.4f" b.lemma41_growth;
                (if ok then "yes" else "NO");
              ]
          end)
        bands;
      Buffer.add_string buf (Table.render t);
      ignore vname)
    [
      ("b2", Process.Fixed 2, "b = 2 (Lemma 4.1)");
      ("rho5", Process.Bernoulli 0.5, "rho = 0.5 (Lemma 4.2)");
    ];
  Buffer.add_string buf
    (Printf.sprintf
       "\nmeasured growth conditioned on |A| must dominate the lemma formula in every populated band\nverdict: %s\n"
       (Common.verdict !all_ok));
  Buffer.contents buf

let experiment =
  Experiment.make ~id:"e7" ~title:"Lemma 4.1/4.2 — one-round BIPS growth"
    ~claim:"E(|A_{t+1}|) >= |A_t| (1 + rho (1 - lambda^2)(1 - |A_t|/n)) on regular graphs" ~run
