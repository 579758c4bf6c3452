(* Counter-based keyed generator: draw [i] at position [key] is
   [mix (key + gamma * i)], i.e. the [i]-th output of a SplitMix64 state
   seeded at [key].  Positions are derived from (master, round, vertex)
   with two finaliser applications, so structured lattices of nearby
   rounds/vertices land on decorrelated keys.

   The cursor is 16 bytes: the pre-mixed master at offset 0, and at
   offset 8 the counter (position key + gamma * draw index).  A mutable
   [int64] record field would box a fresh int64 on every write; a read
   or write through [%caml_bytes_get64u]/[%caml_bytes_set64u] is one
   unboxed load or store, so a draw allocates nothing.  The finaliser
   lives here, beside the loops that inline it, for the same reason:
   dune's dev profile compiles with [-opaque], which stops inlining
   across modules, and an out-of-line call boxes its int64 argument and
   result. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let model_tag = "keyed-1"
let gamma = 0x9E3779B97F4A7C15L

(* The two multiply-xorshift rounds of the SplitMix64 finaliser, applied
   to [z + gamma].  All arithmetic is modulo 2^64, which Int64 provides
   natively. *)
let[@inline] mix z =
  let z = Int64.add z gamma in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] master t = get64 t 0
let[@inline] set_ctr t v = set64 t 8 v

(* The round half of the position key.  It is loop-invariant across a
   round's vertices, so the step kernels hoist it once per round
   ([round_base]) and pay a single finaliser application per vertex
   ([position_at]) instead of the two that the from-scratch [key_of]
   costs.  The [round * 8] spacing is part of the bit-level contract:
   every persisted result and golden was drawn under it. *)
let[@inline] base_of ~master ~round = mix (Int64.add master (Int64.of_int (round * 8)))

let[@inline] key_of ~master ~round ~vertex =
  (* Two mix rounds: one folds the round into the master, one folds the
     vertex in.  Each is a bijection of the 64-bit space, so distinct
     tuples with vertex < 2^61 map to distinct pre-images — collisions
     are only those of the finaliser itself. *)
  mix (Int64.add (base_of ~master ~round) (Int64.of_int vertex))

let create ~master =
  let t = Bytes.create 16 in
  let master = mix (Int64.of_int master) in
  set64 t 0 master;
  set_ctr t (key_of ~master ~round:0 ~vertex:0);
  t

let copy = Bytes.copy

let round_base t ~round = base_of ~master:(master t) ~round

let[@inline] position_at t ~base ~vertex = set_ctr t (mix (Int64.add base (Int64.of_int vertex)))

let position t ~round ~vertex = set_ctr t (key_of ~master:(master t) ~round ~vertex)

let[@inline] next t =
  let c = get64 t 8 in
  set_ctr t (Int64.add c gamma);
  mix c

let next64 t = next t

let[@inline] bits30 t = Int64.to_int (Int64.shift_right_logical (next t) 34)

(* Smallest all-ones mask covering [0, n): the rejection mask both
   [int_below] and the mask-hoisted [masked_below] draw under. *)
let[@inline] mask_below n =
  let m = ref 1 in
  while !m < n - 1 do
    m := (!m lsl 1) lor 1
  done;
  !m

(* Same masked-rejection scheme as [Rng.int_below]: no modulo bias,
   expected < 2 draws.  Rejections advance the counter, which is fine —
   the draw sequence is still a pure function of the position. *)
let[@inline] masked_below t ~mask n =
  if n = 1 then 0
  else if mask <= 0x3FFFFFFF then begin
    let v = ref (bits30 t land mask) in
    while !v >= n do
      v := bits30 t land mask
    done;
    !v
  end
  else begin
    let v = ref (Int64.to_int (Int64.shift_right_logical (next t) 2) land mask) in
    while !v >= n do
      v := Int64.to_int (Int64.shift_right_logical (next t) 2) land mask
    done;
    !v
  end

let int_below t n =
  if n <= 0 then invalid_arg "Keyed.int_below: bound must be positive";
  if n = 1 then 0 else masked_below t ~mask:(mask_below n) n

(* Vectorised draw run: [count] successive [int_below t n] draws with
   the mask computed once, written into [out.(0 .. count-1)].  Draw
   consumption (including rejections) is identical to [count] separate
   [int_below] calls, so results are bit-compatible either way. *)
let int_below_run t n ~out ~count =
  if n <= 0 then invalid_arg "Keyed.int_below_run: bound must be positive";
  if count > Array.length out then invalid_arg "Keyed.int_below_run: buffer too short";
  if n = 1 then Array.fill out 0 count 0
  else begin
    let mask = mask_below n in
    for i = 0 to count - 1 do
      Array.unsafe_set out i (masked_below t ~mask n)
    done
  end

let[@inline] float01 t =
  let bits = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int bits *. 0x1.0p-53

let bool t = Int64.compare (next t) 0L < 0

let bernoulli t p = if p >= 1.0 then true else if p <= 0.0 then false else float01 t < p
