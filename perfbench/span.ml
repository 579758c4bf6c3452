(* In-memory spans recorded around the benchmark's calls into the
   library.  A span has a name, a start and end on the monotonic clock, a
   parent span and a group: every span of one trial, experiment or job
   shares the group id.  Nothing is written until {!write} at the end of
   the run, so recording costs one clock read and one cons per boundary.

   A disabled recorder runs the wrapped call and records nothing; the
   untraced measurements go through the same code with it off. *)

type span = { id : int; parent : int; group : int; name : string; t0 : int64; t1 : int64 }

type t = {
  enabled : bool;
  mutable spans : span list;
  mutable stack : int list;
  mutable next_id : int;
  mutable group : int;
}

let create ~enabled = { enabled; spans = []; stack = []; next_id = 0; group = 0 }
let spans t = List.rev t.spans

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let new_group t = t.group <- fresh_id t

let with_span t name f =
  if not t.enabled then f ()
  else begin
    let id = fresh_id t in
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let t0 = Util.now () in
    let finish () =
      let t1 = Util.now () in
      t.stack <- List.tl t.stack;
      t.spans <- { id; parent; group = t.group; name; t0; t1 } :: t.spans
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

(* A span whose bounds were measured elsewhere (e.g. on a receiver
   thread); returns its id so children can name it as parent. *)
let record t ?(parent = -1) ~group ~name ~t0 ~t1 () =
  let id = fresh_id t in
  if t.enabled then t.spans <- { id; parent; group; name; t0; t1 } :: t.spans;
  id

let dur_s s = Int64.to_float (Int64.sub s.t1 s.t0) *. 1e-9

(* Per name: span count, total seconds and self seconds (duration minus
   the part covered by child spans).  Children of one parent run one
   after another, so their durations add. *)
let self_times t =
  let spans = spans t in
  let child_s = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_s s.parent
          (dur_s s +. Option.value (Hashtbl.find_opt child_s s.parent) ~default:0.0))
    spans;
  let by_name = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun s ->
      let d = dur_s s in
      let self = Float.max 0.0 (d -. Option.value (Hashtbl.find_opt child_s s.id) ~default:0.0) in
      match Hashtbl.find_opt by_name s.name with
      | None ->
          order := s.name :: !order;
          Hashtbl.replace by_name s.name (1, d, self)
      | Some (c, tot, sf) -> Hashtbl.replace by_name s.name (c + 1, tot +. d, sf +. self))
    spans;
  List.rev_map (fun name -> (name, Hashtbl.find by_name name)) !order

(* [unaccounted t name] is [(self / total, total)] over the spans called
   [name]: the share of their time no child span covers, with its base. *)
let unaccounted t name =
  match List.assoc_opt name (self_times t) with
  | Some (_, total, self) when total > 0.0 -> (self /. total, total)
  | _ -> (0.0, 0.0)

let durations t name =
  Array.of_list
    (List.filter_map (fun s -> if s.name = name then Some (dur_s s) else None) (spans t))

let print_report t =
  List.iter
    (fun (name, (count, total, self)) ->
      Printf.printf "span %-28s count=%-6d total_s=%.6f self_s=%.6f\n" name count total self)
    (self_times t)

(* Chrome trace-event JSON (opens in Perfetto): one complete event per
   span, the group as thread id so each trial/job gets its own track. *)
let write t path =
  let module Json = Cobra_obs.Json in
  let origin = List.fold_left (fun acc s -> min acc s.t0) Int64.max_int t.spans in
  let us x = Int64.to_float (Int64.sub x origin) /. 1e3 in
  let event s =
    Json.Obj
      [
        ("name", Json.String s.name);
        ("ph", Json.String "X");
        ("ts", Json.Float (us s.t0));
        ("dur", Json.Float (us s.t1 -. us s.t0));
        ("pid", Json.Int 1);
        ("tid", Json.Int s.group);
        ("args", Json.Obj [ ("id", Json.Int s.id); ("parent", Json.Int s.parent) ]);
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (Json.to_string (Json.Obj [ ("traceEvents", Json.List (List.map event (spans t))) ])))
