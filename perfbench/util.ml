(* Clocks, order statistics, process memory and host facts shared by the
   three workloads. *)

let now () = Monotonic_clock.now ()

let seconds_since t0 = Int64.to_float (Int64.sub (now ()) t0) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, seconds_since t0)

(* Linear-interpolation quantile (type 7); 0 for an empty sample, which
   is how a layer the workload never reached reports. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    s.(lo) +. ((h -. float_of_int lo) *. (s.(hi) -. s.(lo)))
  end

let median xs = quantile xs 0.5

let sum xs = Array.fold_left ( +. ) 0.0 xs

let mean xs = if Array.length xs = 0 then 0.0 else sum xs /. float_of_int (Array.length xs)

(* The tail a run can support: the highest of p99 and p90 that leaves at
   least ten samples beyond it.  A run of fewer than 100 requests has no
   such percentile and reports its mean request instead. *)
let tail xs =
  let n = Array.length xs in
  if n >= 1000 then quantile xs 0.99 else if n >= 100 then quantile xs 0.9 else mean xs

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with line -> go (line :: acc) | exception End_of_file -> List.rev acc
      in
      let lines = go [] in
      close_in ic;
      lines

(* Peak resident set (VmHWM) of [pid] ("self" by default), in MB. *)
let peak_rss_mb ?(pid = "self") () =
  let prefix = "VmHWM:" in
  match
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = prefix)
      (read_lines (Printf.sprintf "/proc/%s/status" pid))
  with
  | None -> 0.0
  | Some l ->
      let kb = Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun k -> k) in
      float_of_int kb /. 1024.0

let mkdir_p dir =
  let rec ensure d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      ensure (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  ensure dir

(* --- host facts, printed with every result set --- *)

let nproc () =
  match Unix.open_process_in "nproc" with
  | exception Unix.Unix_error _ -> Domain.recommended_domain_count ()
  | ic ->
      let n = try int_of_string (String.trim (input_line ic)) with _ -> 0 in
      ignore (Unix.close_process_in ic : Unix.process_status);
      if n > 0 then n else Domain.recommended_domain_count ()

(* Size in bytes of the last-level cache, from sysfs (the highest cache
   index of CPU 0); 0 when sysfs does not say. *)
let llc_bytes () =
  let dir = "/sys/devices/system/cpu/cpu0/cache" in
  let parse s =
    let s = String.trim s in
    let len = String.length s in
    if len = 0 then 0
    else
      let num k = int_of_string (String.sub s 0 (len - 1)) * k in
      match s.[len - 1] with
      | 'K' -> num 1024
      | 'M' -> num (1024 * 1024)
      | _ -> int_of_string s
  in
  let best = ref (0, 0) in
  (match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | entries ->
      Array.iter
        (fun e ->
          if String.length e > 5 && String.sub e 0 5 = "index" then
            match
              ( read_lines (Filename.concat dir (e ^ "/level")),
                read_lines (Filename.concat dir (e ^ "/size")) )
            with
            | [ lvl ], [ size ] -> (
                match (int_of_string_opt (String.trim lvl), parse size) with
                | Some l, bytes when l > fst !best -> best := (l, bytes)
                | _ | (exception _) -> ())
            | _ -> ())
        entries);
  snd !best

(* The memory-copy baseline's buffer: four times the last-level cache, so
   the copy streams from memory (64 MiB when the cache size is unknown). *)
let memcpy_bytes llc = max (4 * llc) (64 lsl 20)

(* Digest of the sources the benchmark builds, so results from a checkout
   that is not a git repository still name the code they measured. *)
let source_digest () =
  let files = ref [] in
  let rec walk d =
    match Sys.readdir d with
    | exception Sys_error _ -> ()
    | entries ->
        Array.sort compare entries;
        Array.iter
          (fun e ->
            let p = Filename.concat d e in
            if Sys.is_directory p then walk p
            else if Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli" then
              files := p :: !files)
          entries
  in
  List.iter walk [ "lib"; "bin" ];
  let parts = List.rev_map (fun p -> p ^ ":" ^ Digest.to_hex (Digest.file p)) !files in
  String.sub (Digest.to_hex (Digest.string (String.concat "\n" parts))) 0 12
