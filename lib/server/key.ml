(* See the .mli for what must and must not affect the digest. *)

let canonical_branching (b : Cobra_core.Process.branching) =
  match b with
  | Fixed k -> Printf.sprintf "fixed:%d" k
  | Bernoulli rho ->
      (* Draw-identical extremes collapse onto their Fixed form (the
         Process contract tested by the suite), so e.g. {"bernoulli":1.0}
         and {"fixed":2} hit the same cache line. *)
      if rho = 1.0 then "fixed:2"
      else if rho = 0.0 then "fixed:1"
      else Printf.sprintf "bernoulli:%.17g" rho

let canonical (job : Proto.job) =
  let g = job.graph in
  String.concat ";"
    [
      Printf.sprintf "v=%d" Proto.version;
      Printf.sprintf "model=%s" Cobra_prng.Keyed.model_tag;
      Printf.sprintf "kind=%s" (Proto.kind_to_string job.kind);
      Printf.sprintf "family=%s" (String.lowercase_ascii (String.trim g.family));
      Printf.sprintf "n=%d" g.n;
      Printf.sprintf "gseed=%d" g.gseed;
      Printf.sprintf "branching=%s" (canonical_branching job.branching);
      Printf.sprintf "lazy=%b" job.lazy_;
      (match job.max_rounds with
      | None -> "max_rounds=default"
      | Some r -> Printf.sprintf "max_rounds=%d" r);
      Printf.sprintf "trials=%d" job.trials;
      Printf.sprintf "seed=%d" job.master_seed;
    ]

let digest job = Digest.to_hex (Digest.string (canonical job))
