(* Evaluates a command line the way [Cmdliner.Cmd.eval] does, except
   that an error the operator can act on — a malformed or torn graph
   file, an edge out of range, a start vertex with no neighbour, a path
   that cannot be created, an address that does not parse, a server that
   hung up — ends in one "error: …" line on stderr and exit status 1,
   instead of cmdliner's "internal error, uncaught exception" report and
   exit status 125.  The library functions signal such input with
   [Failure], [Invalid_argument], [Sys_error], [Cgr.Bad_file],
   [Wire.Closed] or [Unix.Unix_error]. *)
let eval cmd =
  let error msg =
    Format.print_flush ();
    prerr_endline ("error: " ^ msg);
    1
  in
  match Cmdliner.Cmd.eval ~catch:false cmd with
  | code -> code
  | exception
      ( Failure msg
      | Invalid_argument msg
      | Sys_error msg
      | Cobra_graph.Cgr.Bad_file msg ) ->
      error msg
  | exception Cobra_server.Wire.Closed -> error "the server closed the connection"
  | exception Unix.Unix_error (e, fn, arg) ->
      error
        (Printf.sprintf "%s%s: %s" fn (if arg = "" then "" else " " ^ arg) (Unix.error_message e))

(* The [--host] flag of cobra-serve and cobra-client.  It takes a numeric
   address, and [Unix.inet_addr_of_string] rejects anything else with a
   bare [Failure "inet_addr_of_string"], so the value is parsed here,
   where the error can name the flag and the value it rejected. *)
let host_arg ~default ~doc =
  let check host =
    match Unix.inet_addr_of_string host with
    | _ -> host
    | exception Failure _ ->
        failwith (Printf.sprintf "--host %S is not a numeric IPv4 or IPv6 address" host)
  in
  Cmdliner.(
    Term.(const check $ Arg.(value & opt string default & info [ "host" ] ~docv:"ADDR" ~doc)))
