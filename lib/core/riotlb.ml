module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model
module Int_table = Rio_sim.Int_table

type entry = { mutable rentry : int; mutable rpte : Rpte.t; mutable next : Rpte.t option }

type t = {
  table : entry Int_table.t;  (* keyed by [key ~bdf ~rid] *)
  clock : Cycles.t;
  cost : Cost_model.t;
  mutable hits : int;
  mutable misses : int;
}

let create ~clock ~cost = { table = Int_table.create 16; clock; cost; hits = 0; misses = 0 }

let rid_bits = 20

let key ~bdf ~rid =
  if rid < 0 || rid lsr rid_bits <> 0 then invalid_arg "Riotlb: rid out of range";
  (bdf lsl rid_bits) lor rid

let find t ~bdf ~rid =
  Cycles.charge t.clock t.cost.Cost_model.iotlb_lookup;
  match Int_table.find_opt t.table (key ~bdf ~rid) with
  | Some e ->
      t.hits <- t.hits + 1;
      Some e
  | None ->
      t.misses <- t.misses + 1;
      None

let insert t ~bdf ~rid entry = Int_table.replace t.table (key ~bdf ~rid) entry

let invalidate t ~bdf ~rid =
  Cycles.charge t.clock t.cost.Cost_model.iotlb_invalidate;
  Int_table.remove t.table (key ~bdf ~rid)

let entries t = Int_table.length t.table
let hits t = t.hits
let misses t = t.misses

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
