type t = { started : float }

let start () = { started = Unix.gettimeofday () }
let elapsed_s t = Unix.gettimeofday () -. t.started
(* SOURCE_DATE_EPOCH (reproducible-builds.org convention) pins manifest
   timestamps, letting two runs of the same sweep produce byte-identical
   manifests; elapsed-time measurement is never affected. *)
let stamp () =
  match Sys.getenv_opt "SOURCE_DATE_EPOCH" with
  | Some s -> (
      match float_of_string_opt (String.trim s) with
      | Some epoch when Float.is_finite epoch && epoch >= 0.0 -> epoch
      | _ -> Unix.gettimeofday ())
  | None -> Unix.gettimeofday ()

let iso8601 epoch =
  let tm = Unix.gmtime epoch in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
