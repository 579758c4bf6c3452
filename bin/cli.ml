(* Evaluates a command line the way [Cmdliner.Cmd.eval] does, except
   that input a tool rejects — a malformed or torn graph file, an edge
   out of range, a start vertex with no neighbour — ends in one
   "error: …" line on stderr and exit status 1, instead of cmdliner's
   "internal error, uncaught exception" report and exit status 125.
   The library functions signal such input with [Failure],
   [Invalid_argument], [Sys_error] or [Cgr.Bad_file]. *)
let eval cmd =
  match Cmdliner.Cmd.eval ~catch:false cmd with
  | code -> code
  | exception
      ( Failure msg
      | Invalid_argument msg
      | Sys_error msg
      | Cobra_graph.Cgr.Bad_file msg ) ->
      Format.print_flush ();
      prerr_endline ("error: " ^ msg);
      1
