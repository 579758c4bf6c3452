(* Counter-based keyed generator: draw [i] at position [key] is
   [Splitmix64.mix (key + gamma * i)], i.e. the [i]-th output of a
   SplitMix64 state seeded at [key].  Positions are derived from
   (master, stream, round, vertex) with two finaliser applications, so
   structured lattices of nearby rounds/vertices land on decorrelated
   keys. *)

type t = {
  master : int64; (* pre-mixed master seed *)
  mutable ctr : int64; (* position key + gamma * draw_index *)
}

let model_tag = "keyed-1"
let gamma = Splitmix64.gamma

(* The (stream, round) half of the position key.  It is loop-invariant
   across a round's vertices, so the step kernels hoist it once per
   round ([round_base]) and pay a single finaliser application per
   vertex ([position_at]) instead of the two that the from-scratch
   [key_of] costs. *)
let[@inline] base_of ~master ~stream ~round =
  Splitmix64.mix (Int64.add master (Int64.of_int ((round * 8) + stream)))

let[@inline] key_of ~master ~stream ~round ~vertex =
  (* Two mix rounds: one folds the round (and stream tag) into the
     master, one folds the vertex in.  Each is a bijection of the 64-bit
     space, so distinct tuples with vertex < 2^61 map to distinct
     pre-images — collisions are only those of the finaliser itself. *)
  Splitmix64.mix (Int64.add (base_of ~master ~stream ~round) (Int64.of_int vertex))

let create ~master =
  let master = Splitmix64.mix (Int64.of_int master) in
  { master; ctr = key_of ~master ~stream:0 ~round:0 ~vertex:0 }

let copy t = { master = t.master; ctr = t.ctr }

let round_base ?(stream = 0) t ~round = base_of ~master:t.master ~stream ~round

let[@inline] position_at t ~base ~vertex =
  t.ctr <- Splitmix64.mix (Int64.add base (Int64.of_int vertex))

let position ?(stream = 0) t ~round ~vertex =
  t.ctr <- key_of ~master:t.master ~stream ~round ~vertex

let derive_seed ~master ~stream ~round ~vertex =
  key_of ~master:(Splitmix64.mix (Int64.of_int master)) ~stream ~round ~vertex

let[@inline] next64 t =
  let v = Splitmix64.mix t.ctr in
  t.ctr <- Int64.add t.ctr gamma;
  v

let[@inline] bits30 t = Int64.to_int (Int64.shift_right_logical (next64 t) 34)

(* Smallest all-ones mask covering [0, n): the rejection mask both
   [int_below] and the mask-hoisted [masked_below] draw under. *)
let[@inline] mask_below n =
  let m = ref 1 in
  while !m < n - 1 do
    m := (!m lsl 1) lor 1
  done;
  !m

(* Same masked-rejection scheme as [Xoshiro.int_below]: no modulo bias,
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
    let v = ref (Int64.to_int (Int64.shift_right_logical (next64 t) 2) land mask) in
    while !v >= n do
      v := Int64.to_int (Int64.shift_right_logical (next64 t) 2) land mask
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
  let bits = Int64.to_int (Int64.shift_right_logical (next64 t) 11) in
  float_of_int bits *. 0x1.0p-53

let[@inline] bool t = Int64.compare (next64 t) 0L < 0

let[@inline] bernoulli t p = if p >= 1.0 then true else if p <= 0.0 then false else float01 t < p
