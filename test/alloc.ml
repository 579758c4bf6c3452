(* Words the calling domain allocated on the minor heap while [f ()] ran;
   the allocation tests bound it. *)
let words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before
