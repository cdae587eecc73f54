module Addr = Rio_memory.Addr
module Dma_buffer = Rio_memory.Dma_buffer
module Phys_mem = Rio_memory.Phys_mem
module Rng = Rio_sim.Rng
module Rpte = Rio_core.Rpte
module Dma_api = Rio_protect.Dma_api
module Ring = Rio_ring.Ring

let rx_ring_id = 0
let tx_ring_id = 1

let ring_sizes profile =
  [
    profile.Nic_profiles.rx_ring + 1;
    (profile.Nic_profiles.tx_ring * profile.Nic_profiles.bufs_per_packet) + 1;
  ]

(* One mapped target buffer: its protection handle plus the frames to
   return when the packet retires. *)
type mapped_buf = {
  handle : Dma_api.handle;
  buf : Dma_buffer.t;
  bytes : int;
  phys : Addr.phys;  (* mapped start (kmalloc offset included) *)
}

type tx_packet = { bufs : mapped_buf list; payload_len : int }

type rx_slot = { mb : mapped_buf; mutable filled : int }

type t = {
  profile : Nic_profiles.t;
  api : Dma_api.t;
  mem : Phys_mem.t;
  rng : Rng.t;
  data_movement : bool;
  tx_ring : tx_packet Ring.t;
  tx_done : tx_packet Queue.t;
  rx_ring : rx_slot Ring.t;
  rx_done : rx_slot Queue.t;
  mutable tx_packets : int;
  mutable rx_packets : int;
  mutable faults : int;
  mutable drops : int;
  mutable resets : int;
}

let create ?(data_movement = true) ~profile ~api ~mem ~rng () =
  {
    profile;
    api;
    mem;
    rng;
    data_movement;
    tx_ring = Ring.create ~size:(profile.Nic_profiles.tx_ring + 1);
    tx_done = Queue.create ();
    rx_ring = Ring.create ~size:(profile.Nic_profiles.rx_ring + 1);
    rx_done = Queue.create ();
    tx_packets = 0;
    rx_packets = 0;
    faults = 0;
    drops = 0;
    resets = 0;
  }

let profile t = t.profile

(* kmalloc'd buffers (packet headers, linear skb data, Rx buffers) start
   at arbitrary page offsets, so a 1,500-byte buffer spans two pages about
   a third of the time; page-backed fragments (TSO/frag pages) are
   page-aligned. The resulting mix of 1- and 2-page IOVA allocations is
   what Linux really issues - and what drives the baseline allocator's
   pathology (see rio_iova). *)
let alloc_and_map t ~ring ~bytes ~dir ~kmalloc =
  let offset = if kmalloc then Rng.int t.rng Addr.page_size else 0 in
  match Dma_buffer.alloc (Dma_api.frames t.api) ~size:(bytes + offset) with
  | None -> None
  | Some buf -> (
      let phys = Addr.add buf.Dma_buffer.base offset in
      match Dma_api.map t.api ~ring ~phys ~bytes ~dir with
      | Ok handle -> Some { handle; buf; bytes; phys }
      | Error (`Exhausted | `Overflow) ->
          Dma_buffer.free (Dma_api.frames t.api) buf;
          None)

let unmap_and_free t mb ~end_of_burst =
  (match Dma_api.unmap t.api mb.handle ~end_of_burst with
  | Ok () -> ()
  | Error `Not_mapped -> invalid_arg "Nic: buffer was not mapped");
  Dma_buffer.free (Dma_api.frames t.api) mb.buf

(* {1 Transmit} *)

let data_buf_bytes t =
  let p = t.profile in
  Addr.page_size
  * Rng.int_in t.rng p.Nic_profiles.data_pages_min p.Nic_profiles.data_pages_max

let tx_submit t ~payload =
  if Ring.is_full t.tx_ring then Error `Ring_full
  else begin
    let p = t.profile in
    let bufs =
      if p.Nic_profiles.bufs_per_packet = 2 then begin
        match
          ( alloc_and_map t ~ring:tx_ring_id ~bytes:p.Nic_profiles.header_bytes
              ~dir:Rpte.From_memory ~kmalloc:true,
            alloc_and_map t ~ring:tx_ring_id ~bytes:(data_buf_bytes t)
              ~dir:Rpte.From_memory ~kmalloc:false )
        with
        | Some h, Some d -> Some [ h; d ]
        | Some h, None ->
            unmap_and_free t h ~end_of_burst:true;
            None
        | None, Some d ->
            unmap_and_free t d ~end_of_burst:true;
            None
        | None, None -> None
      end
      else begin
        match
          alloc_and_map t ~ring:tx_ring_id ~bytes:(data_buf_bytes t)
            ~dir:Rpte.From_memory ~kmalloc:true
        with
        | Some d -> Some [ d ]
        | None -> None
      end
    in
    match bufs with
    | None -> Error `Map_failed
    | Some bufs ->
        (* the CPU fills the buffers before handing them to the device *)
        if t.data_movement then begin
          let data_mb = List.nth bufs (List.length bufs - 1) in
          Phys_mem.write t.mem data_mb.phys payload
        end;
        (match Ring.post t.tx_ring { bufs; payload_len = Bytes.length payload } with
        | Ok _ -> ()
        | Error `Full -> assert false);
        Ok ()
  end

let device_tx_process t ~max =
  let processed = ref 0 in
  let continue = ref true in
  while !continue && !processed < max do
    match Ring.consume t.tx_ring with
    | None -> continue := false
    | Some pkt ->
        (* the device fetches each target buffer through translation *)
        List.iter
          (fun mb ->
            if t.data_movement then begin
              match
                Dma.read_from_memory ~api:t.api ~mem:t.mem
                  ~addr:(Dma_api.addr t.api mb.handle)
                  ~len:(min mb.bytes pkt.payload_len)
              with
              | Ok _ -> ()
              | Error _ -> t.faults <- t.faults + 1
            end
            else begin
              match
                Dma_api.translate t.api
                  ~addr:(Dma_api.addr t.api mb.handle)
                  ~offset:0 ~write:false
              with
              | Ok _ -> ()
              | Error _ -> t.faults <- t.faults + 1
            end)
          pkt.bufs;
        Queue.add pkt t.tx_done;
        t.tx_packets <- t.tx_packets + 1;
        incr processed
  done;
  !processed

(* Only a packet's last buffer carries [end_of_burst]. *)
let rec unmap_bufs t ~end_of_burst = function
  | [] -> ()
  | [ mb ] -> unmap_and_free t mb ~end_of_burst
  | mb :: rest ->
      unmap_and_free t mb ~end_of_burst:false;
      unmap_bufs t ~end_of_burst rest

let tx_reclaim_next t ~end_of_burst =
  match Queue.take_opt t.tx_done with
  | None -> false
  | Some pkt ->
      unmap_bufs t ~end_of_burst pkt.bufs;
      true

let tx_reclaim t =
  let n = Queue.length t.tx_done in
  for i = 1 to n do
    ignore (tx_reclaim_next t ~end_of_burst:(i = n))
  done;
  n

let tx_posted t = Ring.length t.tx_ring
let tx_completed t = Queue.length t.tx_done

(* {1 Receive} *)

let rx_fill t =
  let added = ref 0 in
  let continue = ref true in
  while !continue && not (Ring.is_full t.rx_ring) do
    match
      alloc_and_map t ~ring:rx_ring_id ~bytes:t.profile.Nic_profiles.mtu
        ~dir:Rpte.To_memory ~kmalloc:true
    with
    | None -> continue := false
    | Some mb -> (
        match Ring.post t.rx_ring { mb; filled = 0 } with
        | Ok _ -> incr added
        | Error `Full ->
            unmap_and_free t mb ~end_of_burst:true;
            continue := false)
  done;
  !added

let device_rx_deliver t ~payload =
  match Ring.consume t.rx_ring with
  | None ->
      t.drops <- t.drops + 1;
      Error `No_buffer
  | Some slot ->
      let len = min (Bytes.length payload) slot.mb.bytes in
      let outcome =
        if t.data_movement then
          Dma.write_to_memory ~api:t.api ~mem:t.mem
            ~addr:(Dma_api.addr t.api slot.mb.handle)
            ~data:(Bytes.sub payload 0 len)
        else begin
          match
            Dma_api.translate t.api
              ~addr:(Dma_api.addr t.api slot.mb.handle)
              ~offset:0 ~write:true
          with
          | Ok _ -> Ok ()
          | Error e -> Error e
        end
      in
      (match outcome with
      | Ok () ->
          slot.filled <- len;
          Queue.add slot t.rx_done;
          t.rx_packets <- t.rx_packets + 1
      | Error _ -> t.faults <- t.faults + 1);
      (match outcome with Ok () -> Ok () | Error _ -> Error `Fault)

let rx_reap_next t ~end_of_burst =
  match Queue.take_opt t.rx_done with
  | None -> None
  | Some slot ->
      (* unmap BEFORE touching the contents: "only after unmap is it safe
         for the driver to access the buffer" (§2.1, footnote 1) *)
      (match Dma_api.unmap t.api slot.mb.handle ~end_of_burst with
      | Ok () -> ()
      | Error `Not_mapped -> invalid_arg "Nic.rx_reap: buffer was not mapped");
      let payload =
        if t.data_movement && slot.filled > 0 then
          Phys_mem.read t.mem slot.mb.phys slot.filled
        else Bytes.empty
      in
      Dma_buffer.free (Dma_api.frames t.api) slot.mb.buf;
      Some payload

let rx_reap t =
  let n = Queue.length t.rx_done in
  let out = ref [] in
  for i = 1 to n do
    match rx_reap_next t ~end_of_burst:(i = n) with
    | Some payload -> out := payload :: !out
    | None -> ()
  done;
  List.rev !out

let rx_pending t = Queue.length t.rx_done

(* {1 Fault recovery} *)

let reset t =
  (* quiesce: everything the device still owns is torn down unmapped *)
  let rec drain_tx () =
    match Ring.consume t.tx_ring with
    | None -> ()
    | Some pkt ->
        List.iter (fun mb -> unmap_and_free t mb ~end_of_burst:false) pkt.bufs;
        drain_tx ()
  in
  drain_tx ();
  Queue.iter
    (fun pkt -> List.iter (fun mb -> unmap_and_free t mb ~end_of_burst:false) pkt.bufs)
    t.tx_done;
  Queue.clear t.tx_done;
  let rec drain_rx () =
    match Ring.consume t.rx_ring with
    | None -> ()
    | Some slot ->
        unmap_and_free t slot.mb ~end_of_burst:false;
        drain_rx ()
  in
  drain_rx ();
  Queue.iter (fun slot -> unmap_and_free t slot.mb ~end_of_burst:false) t.rx_done;
  Queue.clear t.rx_done;
  (* one terminal invalidation + any deferred flush, then back up *)
  Dma_api.flush t.api;
  t.resets <- t.resets + 1;
  ignore (rx_fill t)

let resets t = t.resets

(* {1 Stats} *)

let tx_packets t = t.tx_packets
let rx_packets t = t.rx_packets
let dma_faults t = t.faults
let drops t = t.drops
