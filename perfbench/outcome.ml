(* What one workload run hands back: operations attempted and failed
   (failed correctness checks count as failed operations), and the
   metrics it measured, by name. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  metrics : (string, float) Hashtbl.t;
}

let create () = { attempted = 0; failed = 0; metrics = Hashtbl.create 64 }
let set t name v = Hashtbl.replace t.metrics name v
let find t name = Hashtbl.find_opt t.metrics name

(* Count one operation; a failed one is named on stderr. *)
let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    Printf.eprintf "check failed: %s\n%!" what
  end

let note fmt = Printf.printf ("note " ^^ fmt ^^ "\n%!")
