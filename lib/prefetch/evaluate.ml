module Int_table = Rio_sim.Int_table

type result = {
  name : string;
  history : int;
  accesses : int;
  hits : int;
  hit_rate : float;
}

let run_with (type s) (module P : Prefetcher.S with type t = s) (p : s) ~name
    ~history ~retain_invalidated trace =
  let mapped = Int_table.create 1024 in
  let predicted = Int_table.create 8 in
  let accesses = ref 0 and hits = ref 0 in
  Array.iter
    (fun ev ->
      match ev with
      | Trace.Map page -> Int_table.replace mapped page ()
      | Trace.Unmap page ->
          Int_table.remove mapped page;
          if not retain_invalidated then P.invalidate p page
      | Trace.Access page ->
          incr accesses;
          if Int_table.mem predicted page then incr hits;
          (* predictions for the next access: only mapped pages may be
             issued (the modified variants' page-table check) *)
          Int_table.reset predicted;
          let preds = P.predict p page in
          List.iter
            (fun q -> if Int_table.mem mapped q then Int_table.replace predicted q ())
            preds;
          P.observe p page)
    trace;
  {
    name;
    history;
    accesses = !accesses;
    hits = !hits;
    hit_rate = (if !accesses = 0 then 0. else float_of_int !hits /. float_of_int !accesses);
  }

let run (module P : Prefetcher.S) ~history ~retain_invalidated trace =
  let p = P.create ~history in
  run_with (module P) p ~name:P.name ~history ~retain_invalidated trace

let run_riotlb ~ring_size trace =
  let p = Riotlb_predictor.create ~history:2 in
  Riotlb_predictor.set_ring_size p ring_size;
  let r =
    run_with
      (module Riotlb_predictor)
      p ~name:Riotlb_predictor.name ~history:2 ~retain_invalidated:true trace
  in
  r
