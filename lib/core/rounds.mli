(** The one round loop every process runner drives.

    A run is a double-buffered sequence of rounds: [step] writes round
    [t]'s set into [next] from [current], the two buffers swap roles,
    and [stop] inspects the new current set.  The runners in {!Cobra},
    {!Bips} and {!Sis} differ only in their step closure (kernel plus
    per-round bookkeeping) and their stop predicate. *)

val run :
  max_rounds:int -> current:Cobra_bitset.Bitset.t -> next:Cobra_bitset.Bitset.t ->
  step:(round:int -> current:Cobra_bitset.Bitset.t -> next:Cobra_bitset.Bitset.t -> unit) ->
  stop:(Cobra_bitset.Bitset.t -> bool) -> int option * Cobra_bitset.Bitset.t
(** [run ~max_rounds ~current ~next ~step ~stop] first asks [stop current]
    (round 0), then for [round = 1, 2, ...] calls
    [step ~round ~current ~next], swaps the buffers and asks [stop] of
    the new current set.  It returns [Some round] for the first round
    at which [stop] holds, or [None] once [max_rounds] rounds ran
    without it, paired with the buffer holding the final set.  [step]
    must overwrite [next] entirely; both buffers are reused, so the
    loop allocates nothing per round. *)
