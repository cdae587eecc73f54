module Rng = Rio_sim.Rng
module Breakdown = Rio_sim.Breakdown
module Phys_mem = Rio_memory.Phys_mem
module Mode = Rio_protect.Mode
module Dma_api = Rio_protect.Dma_api
module Nic = Rio_device.Nic
module Nic_profiles = Rio_device.Nic_profiles

type stream_result = {
  mode : Mode.t;
  nic : string;
  packets : int;  (* measured packets *)
  protection_per_packet : float;
  cycles_per_packet : float;
  gbps : float;
  cpu : float;
  line_limited : bool;
  map_calls : int;
  unmap_calls : int;
  map_components : (Breakdown.component * float) list;
  unmap_components : (Breakdown.component * float) list;
  faults : int;
}

let make_api ?(rcache = false) ~mode ~profile () =
  let config =
    {
      (Dma_api.default_config ~mode) with
      Dma_api.ring_sizes = Nic.ring_sizes profile;
      total_frames = 500_000;
      rcache;
    }
  in
  Dma_api.create config

let components breakdown =
  match breakdown with
  | None -> []
  | Some b ->
      List.map (fun c -> (c, Breakdown.mean_cycles b c)) Breakdown.all_components

(* One interrupt's worth of work: deliver [acks] ack packets, then run
   the driver poll loop over all pending Rx and Tx completions in
   shuffled arrival order (each ring's last completion flags the end of
   its unmap burst), refill the Rx ring, submit and transmit the next
   burst. *)
(* [events] is the stream's scratch for the interleaving of completions
   (true = Rx), grown on demand; only its first rx + tx slots are used
   and shuffled, with the same draws as a fresh array of that length. *)
let interrupt_round nic rng events ~burst ~acks ~ack_payload ~payload =
  for _ = 1 to acks do
    ignore (Nic.device_rx_deliver nic ~payload:ack_payload)
  done;
  let tx_pending = Nic.tx_completed nic in
  let rx_pending = Nic.rx_pending nic in
  let n = rx_pending + tx_pending in
  if Array.length !events < n then events := Array.make (max n (2 * Array.length !events)) false;
  let ev = !events in
  for i = 0 to n - 1 do
    ev.(i) <- i < rx_pending
  done;
  Rng.shuffle_prefix rng ev n;
  let rx_left = ref rx_pending and tx_left = ref tx_pending in
  for i = 0 to n - 1 do
    if ev.(i) then begin
      decr rx_left;
      ignore (Nic.rx_reap_next nic ~end_of_burst:(!rx_left = 0))
    end
    else begin
      decr tx_left;
      ignore (Nic.tx_reclaim_next nic ~end_of_burst:(!tx_left = 0))
    end
  done;
  ignore (Nic.rx_fill nic);
  let submitted = ref 0 in
  for _ = 1 to burst do
    match Nic.tx_submit nic ~payload with
    | Ok () -> incr submitted
    | Error (`Ring_full | `Map_failed) -> ()
  done;
  ignore (Nic.device_tx_process nic ~max:!submitted);
  !submitted

(* Identical stream configurations are memoized: several experiments
   (Tables 1-2, Figures 7-8 and 12) measure the same (mode, NIC) points.
   The memo is domain-safe - under a parallel experiment run, cells
   racing on the same configuration block on a per-key lock and share
   one simulation, while distinct configurations proceed in parallel. *)
let stream_cache : (string, stream_result) Rio_exec.Memo.t =
  Rio_exec.Memo.create ~size:32 ()

let stream_uncached ~packets ~warmup ~seed ~ack_ratio ~rcache ~mode ~profile () =
  let api = make_api ~rcache ~mode ~profile () in
  let cost = Dma_api.cost api in
  let rng = Rng.create ~seed in
  let mem = Phys_mem.create () in
  let nic = Nic.create ~data_movement:false ~profile ~api ~mem ~rng () in
  ignore (Nic.rx_fill nic);
  let payload = Bytes.make profile.Nic_profiles.mtu 'x' in
  let ack_payload = Bytes.make 64 'a' in
  let burst = 32 in
  let ack_carry = ref 0.0 in
  let events = ref [||] in
  let run n =
    let sent = ref 0 in
    while !sent < n do
      ack_carry := !ack_carry +. (float_of_int burst *. ack_ratio);
      let acks = int_of_float !ack_carry in
      ack_carry := !ack_carry -. float_of_int acks;
      let submitted =
        interrupt_round nic rng events ~burst ~acks ~ack_payload ~payload
      in
      sent := !sent + max 1 submitted
    done;
    !sent
  in
  ignore (run warmup);
  Dma_api.reset_driver_cycles api;
  (match Dma_api.map_breakdown api with Some b -> Breakdown.reset b | None -> ());
  (match Dma_api.unmap_breakdown api with Some b -> Breakdown.reset b | None -> ());
  let measured = run packets in
  let protection =
    float_of_int (Dma_api.driver_cycles api) /. float_of_int measured
  in
  let cycles_per_packet = float_of_int profile.Nic_profiles.c_other +. protection in
  let gbps, line_limited =
    Perf_model.capped_gbps ~cost ~line_rate_gbps:profile.Nic_profiles.line_rate_gbps
      ~bytes_per_packet:profile.Nic_profiles.mtu ~cycles_per_packet
  in
  let pps =
    if line_limited then
      Perf_model.line_rate_pps ~line_rate_gbps:profile.Nic_profiles.line_rate_gbps
        ~bytes_per_packet:profile.Nic_profiles.mtu
    else Perf_model.packets_per_second ~cost ~cycles_per_packet
  in
  let cpu = Perf_model.cpu_fraction ~cost ~cycles_per_packet ~pps in
  let bm = Dma_api.map_breakdown api and bu = Dma_api.unmap_breakdown api in
  {
    mode;
    nic = profile.Nic_profiles.name;
    packets = measured;
    protection_per_packet = protection;
    cycles_per_packet;
    gbps;
    cpu;
    line_limited;
    map_calls = (match bm with Some b -> Breakdown.calls b | None -> 0);
    unmap_calls = (match bu with Some b -> Breakdown.calls b | None -> 0);
    map_components = components bm;
    unmap_components = components bu;
    faults = Dma_api.faults api;
  }

let stream ?(packets = 60_000) ?(warmup = 120_000) ?(seed = 42) ?ack_ratio
    ?(rcache = false) ~mode ~profile () =
  let ack_ratio =
    match ack_ratio with
    | Some r -> r
    | None -> profile.Nic_profiles.ack_ratio
  in
  let key =
    Printf.sprintf "%s/%s/%d/%d/%d/%f/%d/%d/%b" (Mode.name mode)
      profile.Nic_profiles.name packets warmup seed ack_ratio
      profile.Nic_profiles.rx_ring profile.Nic_profiles.tx_ring rcache
  in
  Rio_exec.Memo.find_or_add stream_cache key (fun () ->
      stream_uncached ~packets ~warmup ~seed ~ack_ratio ~rcache ~mode ~profile ())

type rr_result = {
  mode : Mode.t;
  nic : string;
  rtt_us : float;
  transactions_per_sec : float;
  cpu : float;
  protection_per_transaction : float;
}

let rr ?(transactions = 5_000) ?(seed = 42) ?(rcache = false) ~mode ~profile () =
  (* Latency-sensitive configurations keep rings modest (interrupt
     moderation off, one transaction in flight), so the live IOVA
     population - and with it the allocator's scan lengths - stays far
     below the stream benchmark's. *)
  let profile =
    {
      profile with
      Nic_profiles.rx_ring = min 512 profile.Nic_profiles.rx_ring;
      tx_ring = min 512 profile.Nic_profiles.tx_ring;
    }
  in
  let api = make_api ~rcache ~mode ~profile () in
  let cost = Dma_api.cost api in
  let rng = Rng.create ~seed in
  let mem = Phys_mem.create () in
  let nic = Nic.create ~data_movement:false ~profile ~api ~mem ~rng () in
  ignore (Nic.rx_fill nic);
  let one = Bytes.make 1 'p' in
  let transaction () =
    (* receive the one-byte request *)
    ignore (Nic.device_rx_deliver nic ~payload:one);
    ignore (Nic.rx_reap_next nic ~end_of_burst:true);
    ignore (Nic.rx_fill nic);
    (* transmit the one-byte response; no burst to amortize over *)
    (match Nic.tx_submit nic ~payload:one with
    | Ok () -> ()
    | Error (`Ring_full | `Map_failed) -> ());
    ignore (Nic.device_tx_process nic ~max:1);
    ignore (Nic.tx_reclaim nic)
  in
  (* short warmup to populate rings and caches *)
  for _ = 1 to 100 do
    transaction ()
  done;
  Dma_api.reset_driver_cycles api;
  for _ = 1 to transactions do
    transaction ()
  done;
  let protection =
    float_of_int (Dma_api.driver_cycles api) /. float_of_int transactions
  in
  let rtt_us =
    Perf_model.rr_rtt_us ~cost ~base_us:profile.Nic_profiles.base_rtt_us
      ~extra_cycles:protection
  in
  let tps = Perf_model.rr_transactions_per_second ~rtt_us in
  let per_transaction_cycles =
    float_of_int profile.Nic_profiles.rr_cpu_cycles +. protection
  in
  let cpu =
    Perf_model.cpu_fraction ~cost ~cycles_per_packet:per_transaction_cycles ~pps:tps
  in
  {
    mode;
    nic = profile.Nic_profiles.name;
    rtt_us;
    transactions_per_sec = tps;
    cpu;
    protection_per_transaction = protection;
  }
