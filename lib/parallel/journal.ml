module Json = Cobra_obs.Json

(* --- codecs --- *)

type 'a codec = { encode : 'a -> Json.t; decode : Json.t -> 'a option }

let float_ = { encode = (fun x -> Json.Float x); decode = Json.to_float_opt }
let int_ = { encode = (fun i -> Json.Int i); decode = Json.to_int_opt }

let pair ca cb =
  {
    encode = (fun (a, b) -> Json.List [ ca.encode a; cb.encode b ]);
    decode =
      (function
      | Json.List [ a; b ] -> (
          match (ca.decode a, cb.decode b) with
          | Some a, Some b -> Some (a, b)
          | _ -> None)
      | _ -> None);
  }

let triple ca cb cc =
  {
    encode = (fun (a, b, c) -> Json.List [ ca.encode a; cb.encode b; cc.encode c ]);
    decode =
      (function
      | Json.List [ a; b; c ] -> (
          match (ca.decode a, cb.decode b, cc.decode c) with
          | Some a, Some b, Some c -> Some (a, b, c)
          | _ -> None)
      | _ -> None);
  }

(* [option] is tagged rather than mapping [None] to [Null]: a [Float nan]
   also serializes to [null], so an untagged encoding could not tell
   [Some nan] from [None] after a round-trip. *)
let option c =
  {
    encode =
      (function
      | None -> Json.Obj [ ("none", Json.Bool true) ]
      | Some v -> Json.Obj [ ("some", c.encode v) ]);
    decode =
      (fun j ->
        match Json.member j "some" with
        | Some v -> ( match c.decode v with Some v -> Some (Some v) | None -> None)
        | None -> ( match Json.member j "none" with Some _ -> Some None | None -> None));
  }

let array c =
  {
    encode = (fun xs -> Json.List (Array.to_list (Array.map c.encode xs)));
    decode =
      (function
      | Json.List items ->
          let decoded = List.filter_map c.decode items in
          if List.length decoded = List.length items then Some (Array.of_list decoded)
          else None
      | _ -> None);
  }

let conv to_repr of_repr c =
  {
    encode = (fun v -> c.encode (to_repr v));
    decode = (fun j -> Option.map of_repr (c.decode j));
  }

(* --- the journal --- *)

(* An entry is addressed by everything that determines the trial's value
   under deterministic seeding: the randomness model (every line carries
   [model]; [load] drops lines of any other), which experiment, which
   Monte-Carlo sweep of that experiment (sweeps are numbered in call
   order, which is deterministic because experiments are), the sweep's
   master seed and trial count, and the trial index.  A recorded value
   is only ever replayed at exactly the same address, so a journal
   written with a different seed, scale or model silently contributes
   nothing. *)
type key = {
  experiment : string;
  sweep : int;
  master_seed : int;
  trials : int;
  trial : int;
}

type t = {
  path : string;
  mutable oc : out_channel option;
  ok_entries : (key, Json.t) Hashtbl.t;
  mutable experiment : string;
  mutable next_sweep : int;
  mutable loaded : int;
  mutable malformed : int;
  mutable replayed : int;
  mutable appended : int;
}

let path t = t.path
let loaded t = t.loaded
let malformed t = t.malformed
let replayed t = t.replayed
let appended t = t.appended

let make path oc =
  {
    path;
    oc;
    ok_entries = Hashtbl.create 256;
    experiment = "";
    next_sweep = 0;
    loaded = 0;
    malformed = 0;
    replayed = 0;
    appended = 0;
  }

let create path =
  make path (Some (open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 path))

let model = Cobra_prng.Keyed.model_tag

let parse_line t line =
  match Json.of_string line with
  | Error _ -> t.malformed <- t.malformed + 1
  | Ok j -> (
      let str k = Option.bind (Json.member j k) Json.to_string_opt in
      let int k = Option.bind (Json.member j k) Json.to_int_opt in
      match (str "experiment", int "sweep", int "master_seed", int "trials", int "trial") with
      | Some _, Some _, Some _, Some _, Some _ when str "model" <> Some model ->
          (* Sampled under another randomness model (an untagged line
             predates the tag): a different address, never replayed. *)
          ()
      | Some experiment, Some sweep, Some master_seed, Some trials, Some trial -> (
          let key = { experiment; sweep; master_seed; trials; trial } in
          match (str "status", Json.member j "value") with
          | Some "ok", Some value ->
              Hashtbl.replace t.ok_entries key value;
              t.loaded <- t.loaded + 1
          | Some "error", _ -> () (* a recorded failure is re-run, not replayed *)
          | _ -> t.malformed <- t.malformed + 1)
      | _ -> t.malformed <- t.malformed + 1)

let load path =
  let t =
    (* Read existing lines first, then reopen for append: a trailing
       partial line from a hard kill is counted as malformed and
       ignored. *)
    let t = make path None in
    if Sys.file_exists path then begin
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          try
            while true do
              let line = String.trim (input_line ic) in
              if line <> "" then parse_line t line
            done
          with End_of_file -> ())
    end;
    t
  in
  t.oc <- Some (open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path);
  t

let set_experiment t id =
  t.experiment <- id;
  t.next_sweep <- 0

let flush t = match t.oc with Some oc -> Stdlib.flush oc | None -> ()

let close t =
  match t.oc with
  | Some oc ->
      t.oc <- None;
      close_out oc
  | None -> ()

(* --- sweeps --- *)

type sweep = { j : t; sweep_experiment : string; index : int; master_seed : int; trials : int }

let begin_sweep j ~master_seed ~trials =
  let index = j.next_sweep in
  j.next_sweep <- index + 1;
  { j; sweep_experiment = j.experiment; index; master_seed; trials }

let key sw ~trial =
  {
    experiment = sw.sweep_experiment;
    sweep = sw.index;
    master_seed = sw.master_seed;
    trials = sw.trials;
    trial;
  }

let find sw ~trial =
  match Hashtbl.find_opt sw.j.ok_entries (key sw ~trial) with
  | Some v ->
      sw.j.replayed <- sw.j.replayed + 1;
      Some v
  | None -> None

let write_line sw ~trial fields =
  match sw.j.oc with
  | None -> ()
  | Some oc ->
      let line =
        Json.to_string
          (Json.Obj
             ([
                ("model", Json.String model);
                ("experiment", Json.String sw.sweep_experiment);
                ("sweep", Json.Int sw.index);
                ("master_seed", Json.Int sw.master_seed);
                ("trials", Json.Int sw.trials);
                ("trial", Json.Int trial);
              ]
             @ fields))
      in
      output_string oc line;
      output_char oc '\n';
      sw.j.appended <- sw.j.appended + 1

let record_ok sw ~trial value =
  Hashtbl.replace sw.j.ok_entries (key sw ~trial) value;
  write_line sw ~trial [ ("status", Json.String "ok"); ("value", value) ]

let record_failure sw ~trial ~exn ~backtrace ~attempts =
  write_line sw ~trial
    [
      ("status", Json.String "error");
      ("exn", Json.String exn);
      ("backtrace", Json.String backtrace);
      ("attempts", Json.Int attempts);
    ]
