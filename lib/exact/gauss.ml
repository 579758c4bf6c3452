let solve_transient p ~transient ~rhs ~singular =
  let m = Array.length transient and r = Array.length rhs in
  (* Augmented rows [I - Q | b_0 .. b_{r-1}]. *)
  let a =
    Array.init m (fun j ->
        let s = transient.(j) in
        let row = Array.make (m + r) 0.0 in
        for jj = 0 to m - 1 do
          row.(jj) <- (if j = jj then 1.0 else 0.0) -. p.(s).(transient.(jj))
        done;
        Array.iteri (fun i b -> row.(m + i) <- b s) rhs;
        row)
  in
  for col = 0 to m - 1 do
    let pivot = ref col in
    for row = col + 1 to m - 1 do
      if Float.abs a.(row).(col) > Float.abs a.(!pivot).(col) then pivot := row
    done;
    if Float.abs a.(!pivot).(col) < 1e-14 then failwith singular;
    let tmp = a.(col) in
    a.(col) <- a.(!pivot);
    a.(!pivot) <- tmp;
    let prow = a.(col) in
    for row = col + 1 to m - 1 do
      let target = a.(row) in
      let factor = target.(col) /. prow.(col) in
      (* Every row holds m + r entries, so k stays in bounds; unchecked
         accesses halve the cost of this O(m^3) loop. *)
      if factor <> 0.0 then
        for k = col to m + r - 1 do
          Array.unsafe_set target k
            (Array.unsafe_get target k -. (factor *. Array.unsafe_get prow k))
        done
    done
  done;
  Array.init r (fun i ->
      let x = Array.make m 0.0 in
      for row = m - 1 downto 0 do
        let s = ref a.(row).(m + i) in
        for k = row + 1 to m - 1 do
          s := !s -. (a.(row).(k) *. x.(k))
        done;
        x.(row) <- !s /. a.(row).(row)
      done;
      x)
