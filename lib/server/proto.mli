(** The versioned request/response vocabulary of the cobra-serve wire
    protocol.

    Every frame (see {!Wire}) carries one JSON object encoded with
    {!Cobra_obs.Json}.  Objects are tagged with a protocol version
    ["v"] and an operation ["op"]; unknown versions and operations are
    rejected at decode time so a newer client degrades to a typed
    [bad_request] instead of a hung connection.  Field order is
    irrelevant on the wire — canonicalisation for cache keys happens in
    {!Key}, not here.

    Requests:
    {v
    {"v":1,"id":"r1","op":"ping"}
    {"v":1,"id":"r2","op":"stats"}
    {"v":1,"id":"r3","op":"submit","deadline_s":5.0,
     "job":{"kind":"cover_time",
            "graph":{"family":"hypercube","n":1024,"gseed":0},
            "branching":{"fixed":2},"lazy":false,
            "max_rounds":4096,"trials":8,"master_seed":2017}}
    v}

    Responses mirror the request ["id"] so a pipelining client can
    match them up:
    {v
    {"v":1,"id":"r1","op":"pong"}
    {"v":1,"id":"r3","op":"result","cached":false,"server_ms":12.5,
     "result":{"n":1024,"count":8,"mean":...,"stddev":...,"min":...,
               "max":...,"median":...,"q90":...,"censored":0,
               "mean_transmissions":...}}
    {"v":1,"id":"r4","op":"error","code":"overloaded",
     "message":"queue full"}
    v} *)

val version : int
(** Current protocol version: [1]. *)

type graph_spec = {
  family : string;  (** A {!Cobra_graph.Gen.by_name} family. *)
  n : int;  (** Requested size; the realised size is reported back. *)
  gseed : int;  (** Generator seed for randomised families. *)
}

type kind = Cover_time | Infection_time

type job = {
  kind : kind;
  graph : graph_spec;
  branching : Cobra_core.Process.branching;
  lazy_ : bool;
  max_rounds : int option;  (** [None] = the estimator's default cap. *)
  trials : int;
  master_seed : int;
}

type request =
  | Ping
  | Stats
  | Submit of { job : job; deadline_s : float option }

type error_code =
  | Bad_request
  | Overloaded  (** Admission control refused the job; retry later. *)
  | Deadline_exceeded
  | Cancelled  (** The server was asked to shut down mid-job. *)
  | Internal

type job_result = {
  n : int;  (** Realised graph size. *)
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
  q90 : float;
  censored : int;
  mean_transmissions : float;
}

type response =
  | Pong
  | Stats_reply of Cobra_obs.Json.t
  | Result of { cached : bool; server_ms : float; result : job_result }
  | Error of { code : error_code; message : string }

val error_code_to_string : error_code -> string
val kind_to_string : kind -> string
val kind_of_string : string -> (kind, string) result

val job_result_of_estimate : n:int -> Cobra_core.Estimate.result -> job_result

(** {2 Envelopes}

    Both directions pair the payload with the client-chosen request
    id. *)

val request_to_json : id:string -> request -> Cobra_obs.Json.t
val request_of_json : Cobra_obs.Json.t -> (string * request, string) result
(** Decoded as [(id, request)].  [Error] messages are human-readable
    and safe to echo into a [bad_request] response. *)

val response_to_json : id:string -> response -> Cobra_obs.Json.t
val response_of_json : Cobra_obs.Json.t -> (string * response, string) result

val job_to_json : job -> Cobra_obs.Json.t
val job_of_json : Cobra_obs.Json.t -> (job, string) result
(** Exposed separately so the server journal can persist accepted jobs
    and replay them at boot. *)

val job_result_to_json : job_result -> Cobra_obs.Json.t
val job_result_of_json : Cobra_obs.Json.t -> (job_result, string) result

val validate_job : job -> (unit, string) result
(** Admission-time validation: known graph family, positive sizes,
    [trials] within bounds, branching parameters in range.  Performed
    before a job is journalled or queued so malformed work is rejected
    with [bad_request] instead of crashing the executor. *)
