(* xoshiro256++ (Blackman, Vigna 2019).  The 256-bit state is 32 unboxed
   bytes, words s0..s3 at offsets 0, 8, 16 and 24.  Four mutable [int64]
   record fields would box a fresh int64 on each of the four writes of
   every draw; [next] reads and writes the words in place and is inlined
   into the draws below, so a draw that returns an [int] or a [bool]
   allocates nothing. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* The state's four words are the first four outputs of a SplitMix64
   stream seeded at [seed], [mix (seed + gamma * w)] for w = 0..3, as
   the xoshiro authors recommend.  An all-zero state is a fixed point of
   the recurrence; SplitMix64 cannot produce four consecutive zeros, so
   this state is valid. *)
let of_seed seed =
  let t = Bytes.create 32 in
  for w = 0 to 3 do
    set64 t (8 * w) (Keyed.mix (Int64.add seed (Int64.mul (Int64.of_int w) Keyed.gamma)))
  done;
  t

let create seed = of_seed (Keyed.mix (Int64.of_int seed))

(* Two mix rounds offset by the master seed, so that nearby trial
   indices land far apart in seed space. *)
let for_trial ~master ~trial =
  of_seed (Keyed.mix (Int64.add (Int64.of_int master) (Keyed.mix (Int64.of_int trial))))

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] next t =
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 (Int64.logxor s2 tmp);
  set64 t 24 (rotl s3 45);
  result

let keyed_master t = Int64.to_int (next t) land max_int

let[@inline] bits30 t = Int64.to_int (Int64.shift_right_logical (next t) 34)

let int_below t n =
  if n <= 0 then invalid_arg "Rng.int_below: bound must be positive";
  if n = 1 then 0
  else begin
    (* Masked rejection: draw ceil(log2 n) bits until the value is < n.
       Expected < 2 draws; no modulo bias. *)
    let mask = Keyed.mask_below n in
    if mask <= 0x3FFFFFFF then begin
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
  end

let[@inline] float01 t =
  (* Top 53 bits of the output, scaled by 2^-53. *)
  let bits = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int bits *. 0x1.0p-53

let bool t = Int64.compare (next t) 0L < 0

let bernoulli t p = if p >= 1.0 then true else if p <= 0.0 then false else float01 t < p

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int_below t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int_below t (Array.length a))
