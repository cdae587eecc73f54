module Addr = Rio_memory.Addr
module Pte = Rio_pagetable.Pte
module Arena = Rio_pagetable.Arena
module Iotlb = Rio_iotlb.Iotlb
module Allocator = Rio_iova.Allocator
module Magazine = Rio_iova.Magazine
module Breakdown = Rio_sim.Breakdown
module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model

type policy = Immediate | Deferred of { batch : int }

type pending_unmap = { node : Rio_iova.Rbtree.node }

exception Exhausted
exception Not_mapped

type t = {
  domain : Context.Domain.t;
  allocator : Allocator.t;
  rcache : Magazine.t option;  (* magazine cache in front of the allocator *)
  iotlb : int Iotlb.t;  (* payloads: packed PTEs *)
  rid : int;
  policy : policy;
  clock : Cycles.t;
  cost : Cost_model.t;
  queue : pending_unmap Queue.t;
  bm : Breakdown.t;  (* map breakdown *)
  bu : Breakdown.t;  (* unmap breakdown *)
}

let create ?rcache ~domain ~allocator ~iotlb ~rid ~policy ~clock ~cost () =
  {
    domain;
    allocator;
    rcache;
    iotlb;
    rid;
    policy;
    clock;
    cost;
    queue = Queue.create ();
    bm = Breakdown.create ();
    bu = Breakdown.create ();
  }

let iova_alloc_pfn t ~size =
  match t.rcache with
  | Some m -> Magazine.alloc_pfn m ~size
  | None -> Allocator.alloc_pfn t.allocator ~size

let iova_find_exn t ~pfn =
  match t.rcache with
  | Some m -> Magazine.find_exn m ~pfn
  | None -> Allocator.find_exn t.allocator ~pfn

let iova_free t node =
  match t.rcache with
  | Some m -> Magazine.free m node
  | None -> Allocator.free t.allocator node

let pages_spanned ~phys ~bytes =
  let first = Addr.pfn phys in
  let last = Addr.pfn (Addr.add phys (bytes - 1)) in
  last - first + 1

(* The zero-alloc primary: breakdown attribution brackets each phase
   with Cycles.now/Breakdown.charge, so the steady-state path allocates
   nothing. *)
let map_exn t ~phys ~bytes ~read ~write =
  if bytes <= 0 then invalid_arg "Driver.map: bytes";
  Breakdown.record_call t.bm;
  Cycles.charge t.clock t.cost.Cost_model.call_overhead;
  Breakdown.charge t.bm Other t.cost.Cost_model.call_overhead;
  let npages = pages_spanned ~phys ~bytes in
  let s = Cycles.now t.clock in
  let iova_pfn = iova_alloc_pfn t ~size:npages in
  Breakdown.charge t.bm Iova_alloc (Cycles.since t.clock s);
  if iova_pfn < 0 then raise Exhausted;
  let s = Cycles.now t.clock in
  for i = 0 to npages - 1 do
    let pte = Pte.pack_make ~read ~write ~pfn:(Addr.pfn phys + i) in
    (* the allocator guarantees a fresh range, so Already_mapped cannot
       fire here *)
    Arena.map_exn t.domain.Context.Domain.table
      ~iova:((iova_pfn + i) lsl Addr.page_shift)
      ~pte
  done;
  Breakdown.charge t.bm Page_table (Cycles.since t.clock s);
  (iova_pfn lsl Addr.page_shift) lor Addr.page_offset phys

let map t ~phys ~bytes ~read ~write =
  match map_exn t ~phys ~bytes ~read ~write with
  | iova -> Ok iova
  | exception Exhausted -> Error `Exhausted

(* Release one IOVA range back to the allocator. Attributed to the unmap
   breakdown whether it runs inline (strict) or from a batched flush
   (deferred) - the cost is amortized over unmap calls either way. *)
let release t node =
  let s = Cycles.now t.clock in
  iova_free t node;
  Breakdown.charge t.bu Iova_free (Cycles.since t.clock s)

let do_flush t =
  let s = Cycles.now t.clock in
  Iotlb.flush_all t.iotlb;
  Breakdown.charge t.bu Iotlb_inv (Cycles.since t.clock s);
  Queue.iter (fun { node } -> release t node) t.queue;
  Queue.clear t.queue

(* Deferred-mode enqueue, split out of [unmap_exn] so the queue-record
   allocation stays outside the gated immediate path. *)
let defer_release t node ~batch =
  Cycles.charge t.clock (2 * t.cost.Cost_model.mem_ref_cached);
  Breakdown.charge t.bu Other (2 * t.cost.Cost_model.mem_ref_cached);
  Queue.add { node } t.queue;
  if Queue.length t.queue >= batch then do_flush t

let unmap_exn t ~iova =
  Breakdown.record_call t.bu;
  Cycles.charge t.clock t.cost.Cost_model.call_overhead;
  Breakdown.charge t.bu Other t.cost.Cost_model.call_overhead;
  let pfn = iova lsr Addr.page_shift in
  let s = Cycles.now t.clock in
  match iova_find_exn t ~pfn with
  | exception Not_found ->
      Breakdown.charge t.bu Iova_find (Cycles.since t.clock s);
      raise Not_mapped
  | node ->
      Breakdown.charge t.bu Iova_find (Cycles.since t.clock s);
      let lo = node.Rio_iova.Rbtree.lo and hi = node.Rio_iova.Rbtree.hi in
      let s = Cycles.now t.clock in
      for p = lo to hi do
        (* map installed every page of the range, so Not_mapped cannot
           fire here *)
        ignore
          (Arena.unmap_exn t.domain.Context.Domain.table
             ~iova:(p lsl Addr.page_shift))
      done;
      Breakdown.charge t.bu Page_table (Cycles.since t.clock s);
      (match t.policy with
      | Immediate ->
          let s = Cycles.now t.clock in
          for p = lo to hi do
            Iotlb.invalidate t.iotlb ~bdf:t.rid ~vpn:p
          done;
          Breakdown.charge t.bu Iotlb_inv (Cycles.since t.clock s);
          let s = Cycles.now t.clock in
          iova_free t node;
          Breakdown.charge t.bu Iova_free (Cycles.since t.clock s)
      | Deferred { batch } ->
          (* Queueing is cheap; the IOVA stays allocated (and the stale
             IOTLB entry usable) until the batched flush. *)
          defer_release t node ~batch)

let unmap t ~iova =
  match unmap_exn t ~iova with
  | () -> Ok ()
  | exception Not_mapped -> Error `Not_mapped

let flush t = if not (Queue.is_empty t.queue) then do_flush t
let pending t = Queue.length t.queue
let map_breakdown t = t.bm
let unmap_breakdown t = t.bu
let live_mappings t = Arena.mapped_count t.domain.Context.Domain.table
let rcache t = t.rcache
