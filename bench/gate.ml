(* CI bench gate for the keyed-kernel scaling and solver-cost
   regressions.

   `dune exec bench/gate.exe -- [BENCH_cobra.json] [tolerance]` reads
   the structured "scaling" rows written by bench/main.exe and fails
   (exit 1) if, for any (family, n) pair, the keyed kernel at domains=2
   is slower than the same kernel at domains=1 by more than the
   tolerance factor (default 1.10): sharding a round must not cost more
   than running it serially.  On a host with fewer than two recommended
   domains the two widths share one core, so the pin prints SKIP
   (unmeasured) instead of passing or failing on a meaningless ratio.

   It also reads the structured "spectral" rows and pins the iterative
   solver costs from ISSUE 8: the Lanczos second eigenvalue at n = 256
   must beat the pre-overhaul power iteration by 5x (19.07 ms seed ->
   3.8 ms ceiling) and the CG all-pairs hitting times at n = 128 must
   not regress past the dense-L+ seed (6.6 ms).  Absolute ceilings are
   deliberate — a relative gate would drift with its baseline.  The
   Lanczos ceiling carries ~2x headroom over measured cost; the CG
   ceiling is parity with the dense solve it replaced, which CG beats
   by a few percent at this (smallest, least favourable) size.

   One storage pin rides on the ingest rows: the int32 CSR must report
   <= 4.5 bytes per directed adjacency entry on the builder ingest row
   (4 + 4(n+1)/2m, ~4.25 for ba:8).

   The gate refuses to pass vacuously: a bench file with no scaling
   rows, no spectral rows, no ingest rows, or rows missing the required
   entries is itself a failure (schema drift would otherwise disable
   the gate without anyone noticing). *)

module Json = Cobra_obs.Json

type row = { kernel : string; family : string; n : int; domains : int; ns : float }

let row_of_json v =
  let str k = Option.bind (Json.member v k) Json.to_string_opt in
  let int k = Option.bind (Json.member v k) Json.to_int_opt in
  let flt k = Option.bind (Json.member v k) Json.to_float_opt in
  match (str "kernel", str "family", int "n", int "domains", flt "ns_per_round") with
  | Some kernel, Some family, Some n, Some domains, Some ns ->
      Some { kernel; family; n; domains; ns }
  | _ -> None

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let () =
  let path = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_cobra.json" in
  let tolerance = if Array.length Sys.argv > 2 then float_of_string Sys.argv.(2) else 1.10 in
  let doc =
    match Json.of_string (read_file path) with
    | Ok v -> v
    | Error e ->
        Printf.eprintf "bench gate: %s: %s\n" path e;
        exit 1
  in
  let rows =
    match Json.member doc "scaling" with
    | Some (Json.List items) -> List.filter_map row_of_json items
    | _ -> []
  in
  if rows = [] then begin
    Printf.eprintf "bench gate: %s has no structured scaling rows — schema drift?\n" path;
    exit 1
  end;
  let groups =
    List.sort_uniq compare (List.map (fun r -> (r.family, r.n)) rows)
  in
  let find kernel domains family n =
    List.find_opt
      (fun r -> r.kernel = kernel && r.domains = domains && r.family = family && r.n = n)
      rows
  in
  let max_bytes_per_entry = 4.5 in
  let failures = ref 0 in
  let checked = ref 0 in
  let multi_domain = Domain.recommended_domain_count () >= 2 in
  List.iter
    (fun (family, n) ->
      match (find "cobra_step_keyed" 1 family n, find "cobra_step_keyed" 2 family n) with
      | Some keyed1, Some keyed2 when not multi_domain ->
          Printf.printf
            "SKIP %s n=%d: keyed domains=2 %.2f ms vs domains=1 %.2f ms unmeasured \
             (Domain.recommended_domain_count = %d)\n"
            family n (keyed2.ns /. 1e6) (keyed1.ns /. 1e6) (Domain.recommended_domain_count ())
      | Some keyed1, Some keyed2 ->
          incr checked;
          let ratio = keyed2.ns /. keyed1.ns in
          let ok = ratio <= tolerance in
          Printf.printf
            "%s %s n=%d: keyed domains=2 %.2f ms vs domains=1 %.2f ms (%.2fx, limit %.2fx)\n"
            (if ok then "PASS" else "FAIL")
            family n (keyed2.ns /. 1e6) (keyed1.ns /. 1e6) ratio tolerance;
          if not ok then incr failures
      | _ ->
          Printf.printf "FAIL %s n=%d: missing keyed domains=1 or domains=2 scaling row\n" family n;
          incr failures)
    groups;
  (* --- Spectral solver ceilings --- *)
  let spectral_rows =
    match Json.member doc "spectral" with
    | Some (Json.List items) ->
        List.filter_map
          (fun v ->
            let str k = Option.bind (Json.member v k) Json.to_string_opt in
            let int k = Option.bind (Json.member v k) Json.to_int_opt in
            let flt k = Option.bind (Json.member v k) Json.to_float_opt in
            match (str "kernel", int "n", flt "ms_per_solve") with
            | Some kernel, Some n, Some ms -> Some (kernel, n, ms)
            | _ -> None)
          items
    | _ -> []
  in
  if spectral_rows = [] then begin
    Printf.eprintf "bench gate: %s has no structured spectral rows — schema drift?\n" path;
    exit 1
  end;
  (* (kernel, n, ceiling in ms).  Rows beyond this list (n = 4096,
     n = 2^20, matvec ablation) are informational full-mode extras. *)
  let ceilings =
    [ ("second_eigenvalue", 256, 3.8); ("all_hitting_times_cg", 128, 6.6) ]
  in
  List.iter
    (fun (kernel, n, ceiling) ->
      match
        List.find_opt (fun (k, n', _) -> k = kernel && n' = n) spectral_rows
      with
      | Some (_, _, ms) ->
          incr checked;
          let ok = ms <= ceiling in
          Printf.printf "%s spectral %s n=%d: %.2f ms (ceiling %.2f ms)\n"
            (if ok then "PASS" else "FAIL")
            kernel n ms ceiling;
          if not ok then incr failures
      | None ->
          Printf.printf "FAIL spectral %s n=%d: row missing\n" kernel n;
          incr failures)
    ceilings;
  (* --- CSR memory ceiling (ingest rows) --- *)
  let ingest_rows =
    match Json.member doc "ingest" with
    | Some (Json.List items) ->
        List.filter_map
          (fun v ->
            let str k = Option.bind (Json.member v k) Json.to_string_opt in
            let flt k = Option.bind (Json.member v k) Json.to_float_opt in
            match (str "kernel", flt "ms_per_run") with
            | Some kernel, Some ms -> Some (kernel, ms, flt "bytes_per_entry")
            | _ -> None)
          items
    | _ -> []
  in
  if ingest_rows = [] then begin
    Printf.eprintf "bench gate: %s has no structured ingest rows — schema drift?\n" path;
    exit 1
  end;
  let find_ingest kernel = List.find_opt (fun (k, _, _) -> k = kernel) ingest_rows in
  (match find_ingest "builder_finish" with
  | Some (_, _, Some bytes) ->
      incr checked;
      let ok = bytes <= max_bytes_per_entry in
      Printf.printf "%s ingest builder_finish: %.2f bytes/entry (ceiling %.2f)\n"
        (if ok then "PASS" else "FAIL")
        bytes max_bytes_per_entry;
      if not ok then incr failures
  | Some (_, _, None) ->
      Printf.printf "FAIL ingest builder_finish: bytes_per_entry missing\n";
      incr failures
  | None ->
      Printf.printf "FAIL ingest: builder_finish row missing\n";
      incr failures);
  if !failures > 0 then begin
    Printf.eprintf "bench gate: %d of %d checks failed\n" !failures !checked;
    exit 1
  end;
  Printf.printf "bench gate: %d checks passed\n" !checked
