module Breakdown = Rio_sim.Breakdown
module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model

type t = {
  device : Rdevice.t;
  hw : Hw.t;
  clock : Cycles.t;
  cost : Cost_model.t;
  bm : Breakdown.t;
  bu : Breakdown.t;
}

let create ~device ~hw ~clock ~cost =
  { device; hw; clock; cost; bm = Breakdown.create (); bu = Breakdown.create () }

(* Each phase is bracketed with Cycles.now/Breakdown.charge, so it is
   credited with everything it charges (nested coherency costs included)
   and no closure is built per phase. *)
let map t ~rid ~phys ~size ~dir =
  Breakdown.record_call t.bm;
  Cycles.charge t.clock t.cost.Cost_model.call_overhead;
  Breakdown.charge t.bm Other t.cost.Cost_model.call_overhead;
  let ring = Rdevice.ring t.device rid in
  if Rring.nmapped ring = Rring.size ring then Error `Overflow
  else begin
    (* "IOVA allocation" is two integer updates on the ring tail. *)
    let s = Cycles.now t.clock in
    Cycles.charge t.clock (2 * t.cost.Cost_model.mem_ref_cached);
    let slot = Rring.tail ring in
    Rring.set_tail ring ((slot + 1) mod Rring.size ring);
    Rring.incr_nmapped ring;
    Breakdown.charge t.bm Iova_alloc (Cycles.since t.clock s);
    (* Fill the rPTE and publish it to the walker (sync_mem). *)
    let s = Cycles.now t.clock in
    Cycles.charge t.clock (4 * t.cost.Cost_model.mem_ref_cached);
    Rring.set_cpu ring slot (Rpte.make ~phys_addr:phys ~size ~dir);
    Rring.sync ring slot;
    Breakdown.charge t.bm Page_table (Cycles.since t.clock s);
    Ok (Riova.pack ~offset:0 ~rentry:slot ~rid)
  end

let unmap t iova ~end_of_burst =
  Breakdown.record_call t.bu;
  Cycles.charge t.clock t.cost.Cost_model.call_overhead;
  Breakdown.charge t.bu Other t.cost.Cost_model.call_overhead;
  let ring = Rdevice.ring t.device iova.Riova.rid in
  let slot = iova.Riova.rentry in
  let current = Rring.get_cpu ring slot in
  if not current.Rpte.valid then Error `Not_mapped
  else begin
    let s = Cycles.now t.clock in
    Cycles.charge t.clock t.cost.Cost_model.mem_ref_cached;
    Rring.set_cpu ring slot Rpte.invalid;
    Rring.sync ring slot;
    Breakdown.charge t.bu Page_table (Cycles.since t.clock s);
    Cycles.charge t.clock t.cost.Cost_model.mem_ref_cached;
    Breakdown.charge t.bu Iova_free t.cost.Cost_model.mem_ref_cached;
    Rring.decr_nmapped ring;
    if end_of_burst then begin
      let s = Cycles.now t.clock in
      Riotlb.invalidate (Hw.riotlb t.hw) ~bdf:(Rdevice.rid t.device)
        ~rid:iova.Riova.rid;
      Breakdown.charge t.bu Iotlb_inv (Cycles.since t.clock s)
    end;
    Ok ()
  end

let map_breakdown t = t.bm
let unmap_breakdown t = t.bu
let nmapped t ~rid = Rring.nmapped (Rdevice.ring t.device rid)
