(* The bench ledger, BENCH_cobra.json: the one file format that
   bench/main.exe writes and bench/gate.exe reads.

   A row is one measured quantity.  [layer] names the layer of
   perfbench/layers.json the code belongs to (round, spectral, graph,
   estimator, substrate), [kernel] what ran, [family], [n] and [m] the
   graph it ran on (a substrate row has family "none", n its input size
   and m = 0), and [domains] the pool width.  [min] and [median] are taken over
   [reps] timed repetitions, in [unit]; a quantity that is not a time
   (bytes per CSR entry) has min = median and reps = 1.  Rows are looked
   up by (layer, kernel, family, n, domains), never by a display name. *)

module Json = Cobra_obs.Json

let schema = "cobra-bench/2"

type row = {
  layer : string;
  kernel : string;
  family : string;
  n : int;
  m : int;
  domains : int;
  unit : string;
  min : float;
  median : float;
  reps : int;
}

type t = {
  git_revision : string;
  created_at : string;
  recommended_domain_count : int;
  rows : row list;
}

let row_to_json r =
  Json.Obj
    [
      ("layer", Json.String r.layer);
      ("kernel", Json.String r.kernel);
      ("family", Json.String r.family);
      ("n", Json.Int r.n);
      ("m", Json.Int r.m);
      ("domains", Json.Int r.domains);
      ("unit", Json.String r.unit);
      ("min", Json.Float r.min);
      ("median", Json.Float r.median);
      ("reps", Json.Int r.reps);
    ]

let write path t =
  let doc =
    Json.Obj
      [
        ("schema", Json.String schema);
        ("git_revision", Json.String t.git_revision);
        ("created_at", Json.String t.created_at);
        ("recommended_domain_count", Json.Int t.recommended_domain_count);
        ("rows", Json.List (List.map row_to_json t.rows));
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string_pretty doc);
      output_char oc '\n')

(* Field readers that name the missing or mistyped field. *)
let field conv what v k =
  match Option.bind (Json.member v k) conv with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "%s: missing or malformed %S" what k)

let ( let* ) = Result.bind

let row_of_json i v =
  let what = Printf.sprintf "row %d" i in
  let str = field Json.to_string_opt what v
  and int = field Json.to_int_opt what v
  and flt = field Json.to_float_opt what v in
  let* layer = str "layer" in
  let* kernel = str "kernel" in
  let* family = str "family" in
  let* n = int "n" in
  let* m = int "m" in
  let* domains = int "domains" in
  let* unit = str "unit" in
  let* min = flt "min" in
  let* median = flt "median" in
  let* reps = int "reps" in
  Ok { layer; kernel; family; n; m; domains; unit; min; median; reps }

(* A file in any other schema is an error, not an empty ledger: a
   reader that skipped what it could not parse would let the gate pass
   on rows it never saw. *)
let of_json doc =
  let top conv k = field conv "ledger" doc k in
  let* s = top Json.to_string_opt "schema" in
  if s <> schema then Error (Printf.sprintf "schema %S, expected %S" s schema)
  else
    let* git_revision = top Json.to_string_opt "git_revision" in
    let* created_at = top Json.to_string_opt "created_at" in
    let* recommended_domain_count = top Json.to_int_opt "recommended_domain_count" in
    let* items = top (function Json.List l -> Some l | _ -> None) "rows" in
    let* rows =
      List.fold_right
        (fun r acc ->
          let* r = r in
          let* rows = acc in
          Ok (r :: rows))
        (List.mapi row_of_json items) (Ok [])
    in
    Ok { git_revision; created_at; recommended_domain_count; rows }

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> Result.bind (Json.of_string text) of_json

let find t ~layer ~kernel ~family ~n ~domains =
  List.find_opt
    (fun r ->
      r.layer = layer && r.kernel = kernel && r.family = family && r.n = n
      && r.domains = domains)
    t.rows
