let run ~max_rounds ~current ~next ~step ~stop =
  let rec go round current next =
    if round > max_rounds then (None, current)
    else begin
      step ~round ~current ~next;
      if stop next then (Some round, next) else go (round + 1) next current
    end
  in
  if stop current then (Some 0, current) else go 1 current next
