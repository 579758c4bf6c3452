(* The state is 8 unboxed bytes: a mutable [int64] field would box a
   fresh int64 on every [next].  The finaliser is {!Keyed.mix}, defined
   beside the keyed draw loops that inline it. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let gamma = Keyed.gamma
let mix = Keyed.mix

let create seed =
  let t = Bytes.create 8 in
  set64 t 0 seed;
  t

(* The output for state [s] is the finaliser applied to [s + gamma],
   which is [mix s]. *)
let next t =
  let s = get64 t 0 in
  set64 t 0 (Int64.add s gamma);
  mix s

let seed_of_pair master i =
  (* Feed the trial index through two mix rounds offset by the master
     seed, so that nearby indices land far apart in seed space. *)
  mix (Int64.add master (mix (Int64.of_int i)))
