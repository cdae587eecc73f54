module Addr = Rio_memory.Addr
module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model
module Int_table = Rio_sim.Int_table

type fault =
  | Unknown_device
  | Bad_ring
  | Bad_entry
  | Invalid_entry
  | Offset_out_of_range
  | Direction_denied

let pp_fault fmt f =
  Format.pp_print_string fmt
    (match f with
    | Unknown_device -> "unknown device"
    | Bad_ring -> "ring id out of range"
    | Bad_entry -> "ring entry out of range"
    | Invalid_entry -> "invalid rPTE"
    | Offset_out_of_range -> "offset out of range"
    | Direction_denied -> "direction denied")

type t = {
  devices : Rdevice.t Int_table.t;
  riotlb : Riotlb.t;
  clock : Cycles.t;
  cost : Cost_model.t;
  mutable faults : int;
  mutable walks : int;
  mutable prefetch_hits : int;
}

let create ~clock ~cost =
  { devices = Int_table.create 8; riotlb = Riotlb.create ~clock ~cost; clock; cost;
    faults = 0; walks = 0; prefetch_hits = 0 }

let attach t dev = Int_table.replace t.devices (Rdevice.rid dev) dev
let detach t ~rid = Int_table.remove t.devices rid
let riotlb t = t.riotlb

(* rprefetch (Figure 10, bottom/right): asynchronously copy the ring's
   next rPTE into the entry if it is valid. Asynchronous, hence free. *)
let rprefetch ring e =
  let size = Rring.size ring in
  let next = (e.Riotlb.rentry + 1) mod size in
  let npte = Rring.get_hw ring next in
  e.Riotlb.next <- (if size > 1 && npte.Rpte.valid then Some npte else None)

(* rtable_walk (Figure 10, top/right): validate the rIOVA against the
   flat-table bounds and the rPTE valid bit (reading the walker-visible
   views), then build a fresh rIOTLB entry. Two DRAM references: the
   rRING descriptor and the rPTE. *)
let rtable_walk t dev (iova : Riova.t) =
  t.walks <- t.walks + 1;
  Cycles.charge t.clock (2 * t.cost.Cost_model.io_walk_ref);
  match Rdevice.ring_opt dev iova.Riova.rid with
  | None -> Error Bad_ring
  | Some ring ->
      if iova.Riova.rentry >= Rring.size ring then Error Bad_entry
      else begin
        let rpte = Rring.get_hw ring iova.Riova.rentry in
        if not rpte.Rpte.valid then Error Invalid_entry
        else begin
          let e = { Riotlb.rentry = iova.Riova.rentry; rpte; next = None } in
          rprefetch ring e;
          Ok e
        end
      end

(* riotlb_entry_sync (Figure 10, bottom/left): move the ring's single
   entry to the rIOVA's rPTE - from the prefetched copy when the access
   is the expected sequential successor, else via a table walk. *)
let riotlb_entry_sync t dev (iova : Riova.t) (e : Riotlb.entry) =
  match Rdevice.ring_opt dev iova.Riova.rid with
  | None -> Error Bad_ring
  | Some ring -> (
      let next = (e.Riotlb.rentry + 1) mod Rring.size ring in
      match e.Riotlb.next with
      | Some npte when npte.Rpte.valid && iova.Riova.rentry = next ->
          t.prefetch_hits <- t.prefetch_hits + 1;
          e.Riotlb.rpte <- npte;
          e.Riotlb.rentry <- next;
          e.Riotlb.next <- None;
          rprefetch ring e;
          Ok ()
      | Some _ | None -> (
          match rtable_walk t dev iova with
          | Ok fresh ->
              e.Riotlb.rentry <- fresh.Riotlb.rentry;
              e.Riotlb.rpte <- fresh.Riotlb.rpte;
              e.Riotlb.next <- fresh.Riotlb.next;
              Ok ()
          | Error f -> Error f))

let fault t f =
  t.faults <- t.faults + 1;
  Error f

(* rtranslate (Figure 10, top/left). *)
let rtranslate t ~bdf ~iova ~write =
  match Int_table.find_opt t.devices bdf with
  | None -> fault t Unknown_device
  | Some dev -> (
      let entry =
        match Riotlb.find t.riotlb ~bdf ~rid:iova.Riova.rid with
        | Some e ->
            if e.Riotlb.rentry <> iova.Riova.rentry then
              match riotlb_entry_sync t dev iova e with
              | Ok () -> Ok e
              | Error f -> Error f
            else Ok e
        | None -> (
            match rtable_walk t dev iova with
            | Ok e ->
                Riotlb.insert t.riotlb ~bdf ~rid:iova.Riova.rid e;
                Ok e
            | Error f -> Error f)
      in
      match entry with
      | Error f -> fault t f
      | Ok e ->
          let rpte = e.Riotlb.rpte in
          if iova.Riova.offset >= rpte.Rpte.size then fault t Offset_out_of_range
          else if not (Rpte.permits rpte ~write) then fault t Direction_denied
          else Ok (Addr.add rpte.Rpte.phys_addr iova.Riova.offset))

let faults t = t.faults
let walks t = t.walks
let prefetch_hits t = t.prefetch_hits
