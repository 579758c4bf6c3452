type t = Xoshiro.t

let create seed = Xoshiro.create (Splitmix64.mix (Int64.of_int seed))

let for_trial ~master ~trial =
  Xoshiro.create (Splitmix64.seed_of_pair (Int64.of_int master) trial)

let keyed_master = Xoshiro.bits62
let split t = Xoshiro.create (Xoshiro.next64 t)
let int_below = Xoshiro.int_below
let float01 = Xoshiro.float01
let bool = Xoshiro.bool
let bernoulli = Xoshiro.bernoulli
let shuffle_in_place = Xoshiro.shuffle_in_place

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int_below t (Array.length a))
