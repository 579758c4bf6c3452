(* CI bench gate: `dune exec bench/gate.exe -- [BENCH_cobra.json]
   [tolerance]` reads the ledger bench/main.exe wrote (through
   bench/ledger.ml) and exits 1 if any of its five checks fails
   (tolerance defaults to 1.10).  Each check reads row minima:

   - scaling, hypercube d=16 and regular8 n=2^16: a dense keyed COBRA
     round on a 2-wide pool must not take more than tolerance x the
     same round on one domain.  When the ledger's host had fewer than
     two recommended domains the two widths shared one core, so the
     check prints SKIP (unmeasured) rather than judge a meaningless
     ratio.
   - Lanczos lambda at n = 256 must stay under 3.8 ms, about 2x its
     measured cost.  The ceiling is absolute because the baseline it
     replaced (power iteration, 19 ms) is deleted.
   - CG all-pairs hitting times at n = 128 must take no more than
     tolerance x the dense pseudo-inverse solve it replaced, both
     timed interleaved in the same bench process.
   - The int32 CSR must spend <= 4.5 bytes per directed adjacency
     entry (4 + 4(n+1)/2m, ~4.25 for ba:8).

   The gate cannot pass vacuously: a file in another schema, a row with
   a missing field, or a missing row is a failure.  bench/dune holds it
   to that on two fixtures. *)

let () =
  let path = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_cobra.json" in
  let tolerance = if Array.length Sys.argv > 2 then float_of_string Sys.argv.(2) else 1.10 in
  let ledger =
    match Ledger.read path with
    | Ok l -> l
    | Error e ->
        Printf.eprintf "bench gate: %s: %s\n" path e;
        exit 1
  in
  let failures = ref 0 and passed = ref 0 in
  let verdict ok fmt =
    if ok then incr passed else incr failures;
    Printf.printf ("%s " ^^ fmt ^^ "\n") (if ok then "PASS" else "FAIL")
  in
  let missing name =
    incr failures;
    Printf.printf "FAIL %s: row missing\n" name
  in
  let row layer kernel family n domains = Ledger.find ledger ~layer ~kernel ~family ~n ~domains in
  let domains = ledger.recommended_domain_count in
  List.iter
    (fun (family, n) ->
      let name = Printf.sprintf "scaling %s n=%d" family n in
      match
        (row "round" "cobra_step_keyed" family n 1, row "round" "cobra_step_keyed" family n 2)
      with
      | Some one, Some two when domains < 2 ->
          Printf.printf
            "SKIP %s: domains=2 %.2f ms vs domains=1 %.2f ms unmeasured \
             (recommended_domain_count = %d)\n"
            name two.min one.min domains
      | Some one, Some two ->
          let ratio = two.min /. one.min in
          verdict (ratio <= tolerance) "%s: domains=2 %.2f ms vs domains=1 %.2f ms (%.2fx, limit %.2fx)"
            name two.min one.min ratio tolerance
      | _ -> missing name)
    [ ("hypercube", 65536); ("regular8", 65536) ];
  (match row "spectral" "second_eigenvalue" "regular8" 256 1 with
  | Some r -> verdict (r.min <= 3.8) "spectral second_eigenvalue n=256: %.2f ms (ceiling 3.80 ms)" r.min
  | None -> missing "spectral second_eigenvalue n=256");
  (match
     ( row "spectral" "all_hitting_times_cg" "regular8" 128 1,
       row "spectral" "all_hitting_times_dense" "regular8" 128 1 )
   with
  | Some cg, Some dense ->
      let ratio = cg.min /. dense.min in
      verdict (ratio <= tolerance)
        "spectral all_hitting_times_cg n=128: %.2f ms vs dense %.2f ms (%.2fx, limit %.2fx)" cg.min
        dense.min ratio tolerance
  | _ -> missing "spectral all_hitting_times_cg n=128 vs dense");
  (match row "graph" "bytes_per_entry" "ba" 50_000 1 with
  | Some r -> verdict (r.min <= 4.5) "graph bytes_per_entry: %.2f (ceiling 4.50)" r.min
  | None -> missing "graph bytes_per_entry");
  if !failures > 0 then begin
    Printf.eprintf "bench gate: %d of %d checks failed\n" !failures (!failures + !passed);
    exit 1
  end;
  Printf.printf "bench gate: %d checks passed\n" !passed
