let to_json snapshot =
  Json.Obj
    (List.map
       (fun (name, view) ->
         let value =
           match (view : Metrics.view) with
           | Metrics.Counter_v c -> Json.Int c
           | Metrics.Gauge_v g -> Json.Float g
           | Metrics.Histogram_v h ->
               Json.Obj
                 [
                   ( "buckets",
                     Json.List
                       (List.map
                          (fun (upper, count) ->
                            Json.Obj [ ("le", Json.Float upper); ("count", Json.Int count) ])
                          h.buckets) );
                   ("overflow", Json.Int h.overflow);
                   ("total", Json.Int h.total);
                   ("sum", Json.Float h.sum);
                 ]
         in
         (name, value))
       snapshot)
