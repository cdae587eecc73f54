(* In-process replays of a socket workload, for per-layer times.

   [socket_loop]: the generator runs in a forked child on one end of
   a socketpair per connection; this process plays the server's
   single-domain loop on the other ends with public calls only —
   [Readiness.wait], [Unix.read] into the [Conn], [Conn.next],
   [Dispatch.enqueue], [Dispatch.flush_all], [Unix.single_write],
   [Conn.consumed] — with a span around each call.

   [shards]: the same seeded script straight through the
   [Shard.*_record] calls, one span per call, then the IOTLB and fault
   counters read back from the shards. *)

open Util
module Wire = Rio_serve_net.Wire
module Conn = Rio_serve_net.Conn
module Dispatch = Rio_serve_net.Dispatch
module Readiness = Rio_serve_net.Readiness
module Shard = Rio_serve.Shard

let make_shards () =
  Array.init Script.shards (fun id ->
      Shard.create ~id ~tenants:Script.tenants_per_shard
        ~iotlb_capacity:Script.iotlb_capacity
        ~iotlb_policy:Rio_domain.Shared_iotlb.Shared ~rcache:true ())

type loop_result = {
  ops : int;  (* answers written back *)
  wait : Span.t;
  wakeups : int;
  read : Span.t;
  next : Span.t;
  enqueue : Span.t;
  flush : Span.t;
  write : Span.t;
  cpu_s : float;  (* this process's CPU over the loop *)
  child_ok : bool;  (* the generator verified every answer *)
}

(* The generator half, run in the child: setup, then the closed loop
   for [seconds]; exit status 0 only if every answer verified. *)
let child workload ~seed ~seconds fds =
  let st = Loadgen.create_stats () in
  let conns =
    Array.mapi
      (fun idx fd ->
        Unix.set_nonblock fd;
        Loadgen.create_conn fd (Script.create workload ~seed ~idx))
      fds
  in
  let code =
    match
      Loadgen.setup st conns;
      ignore (Loadgen.run ~measure:false ~seconds st conns : int)
    with
    | () ->
        if
          Array.for_all
            (fun c -> c.Loadgen.ring.Script.failed = 0 && c.Loadgen.ring.Script.safety = 0)
            conns
          && st.Loadgen.extra = 0
        then 0
        else 1
    | exception _ -> 2
  in
  Array.iter Unix.close fds;
  Unix._exit code

let socket_loop workload ~seed ~seconds =
  let pairs =
    Array.init Script.conns (fun _ ->
        Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0)
  in
  match Unix.fork () with
  | 0 ->
      Option.iter (fun (_, gen_cpu) -> ignore (pin 0 gen_cpu : bool)) cpu_pair;
      Array.iter (fun (s, _) -> Unix.close s) pairs;
      child workload ~seed ~seconds (Array.map snd pairs)
  | pid ->
      Option.iter (fun (server_cpu, _) -> ignore (pin 0 server_cpu : bool)) cpu_pair;
      Array.iter (fun (_, c) -> Unix.close c) pairs;
      let fds = Array.map fst pairs in
      Array.iter Unix.set_nonblock fds;
      let shards = make_shards () in
      let d = Dispatch.create ~shards ~batch:Script.batch ~sg_limit:Script.sg_limit () in
      let r = Readiness.create Readiness.Poll in
      let conns =
        Array.mapi
          (fun i fd ->
            let c = Conn.create ~window:Script.window ~sg_limit:Script.sg_limit () in
            Conn.set_token c i;
            let h = Readiness.register r fd ~token:i in
            Readiness.interest r ~handle:h ~read:true ~write:false;
            (c, h, fd))
          fds
      in
      let interest = Array.make (Array.length conns) Readiness.ev_read in
      let open_ = Array.make (Array.length conns) true in
      let nopen = ref (Array.length conns) in
      let req = Wire.create_req ~sg_limit:Script.sg_limit in
      let wait = Span.create () and read = Span.create ()
      and next = Span.create () and enqueue = Span.create ()
      and flush = Span.create () and write = Span.create () in
      let wakeups = ref 0 in
      let drain conn =
        let continue = ref true in
        while !continue && Conn.can_admit conn do
          let t0 = now_ns () in
          let rr = Conn.next conn req in
          Span.add next t0;
          if rr > 0 then begin
            let t0 = now_ns () in
            let ok = Dispatch.enqueue d conn req in
            Span.add enqueue t0;
            if not ok then begin
              let t0 = now_ns () in
              Dispatch.flush_all d;
              Span.add flush t0;
              ignore (Dispatch.enqueue d conn req : bool)
            end
          end
          else continue := false
        done
      in
      let on_ready i bits =
        let conn, _, fd = conns.(i) in
        if bits land Readiness.ev_read <> 0 then begin
          let cap = Conn.read_capacity conn in
          if cap > 0 then begin
            let t0 = now_ns () in
            match Unix.read fd (Conn.rbuf conn) (Conn.read_offset conn) cap with
            | 0 ->
                Span.add read t0;
                Conn.kill conn
            | n ->
                Span.add read t0;
                Conn.fed conn n;
                drain conn
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                Span.add read t0
          end
        end
        else if bits land Readiness.ev_err <> 0 then Conn.kill conn
      in
      let cpu0 = cpu_now () in
      while !nopen > 0 do
        let t0 = now_ns () in
        let nready = Readiness.wait r ~timeout_ms:50 in
        Span.add wait t0;
        if nready > 0 then incr wakeups;
        Readiness.iter_ready r on_ready;
        let t0 = now_ns () in
        Dispatch.flush_all d;
        Span.add flush t0;
        Array.iteri
          (fun i (conn, h, fd) ->
            if open_.(i) then begin
              let q = Conn.queued conn in
              if q > 0 && Conn.alive conn then begin
                let t0 = now_ns () in
                match Unix.single_write fd (Conn.wbuf conn) (Conn.wpos conn) q with
                | n ->
                    Conn.consumed conn n;
                    Span.add write t0
                | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                    Span.add write t0
                | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
                    Span.add write t0;
                    Conn.kill conn
              end;
              if not (Conn.alive conn) then begin
                Readiness.unregister r ~handle:h;
                Unix.close fd;
                open_.(i) <- false;
                decr nopen
              end
              else begin
                let bits =
                  (if Conn.want_read conn then Readiness.ev_read else 0)
                  lor if Conn.want_write conn then Readiness.ev_write else 0
                in
                if bits <> interest.(i) then begin
                  interest.(i) <- bits;
                  Readiness.interest r ~handle:h
                    ~read:(bits land Readiness.ev_read <> 0)
                    ~write:(bits land Readiness.ev_write <> 0)
                end
              end
            end)
          conns
      done;
      let cpu_s = cpu_now () -. cpu0 in
      let _, status = Unix.waitpid [] pid in
      {
        ops = Dispatch.executed d + Dispatch.rejected d;
        wait;
        wakeups = !wakeups;
        read;
        next;
        enqueue;
        flush;
        write;
        cpu_s;
        child_ok = status = Unix.WEXITED 0;
      }

type shard_result = {
  s_ops : int;
  s_translate : Span.t;
  s_map : Span.t;
  s_unmap : Span.t;
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  domain_flushes : int;
  faults : int;
  probes : int;
  translate_p50_cycles : int;
  s_ok : bool;
}

(* Run [batches] batches of every ring straight against the shards.
   Tenants are placed the way the service's dispatcher would place
   them, so IOTLB sharing matches the socket run. *)
let shards workload ~seed ~batches =
  let shards = make_shards () in
  let d = Dispatch.create ~shards ~batch:Script.batch ~sg_limit:Script.sg_limit () in
  let next_slot = Array.make Script.shards 0 in
  let rings = Array.init Script.conns (fun idx -> Script.create workload ~seed ~idx) in
  let place =
    Array.map
      (fun r ->
        let sh =
          Dispatch.shard_of d ~tenant:r.Script.tenant
            ~bdf:(Loadgen.bdf_of r.Script.tenant)
        in
        let slot = next_slot.(sh) in
        next_slot.(sh) <- slot + 1;
        (shards.(sh), slot))
      rings
  in
  let tr = Span.create () and mp = Span.create () and um = Span.create () in
  let exec (sh, tenant) r =
    for i = 0 to r.Script.n - 1 do
      let k = r.Script.b_kind.(i) in
      if k = Script.k_map then begin
        let t0 = now_ns () in
        let res =
          Shard.map_record sh ~tenant
            ~phys:(Rio_memory.Addr.phys_of_int r.Script.b_phys.(i))
            ~bytes:Script.page
        in
        Span.add mp t0;
        match res with
        | Ok iova ->
            r.Script.b_status.(i) <- Wire.st_ok;
            r.Script.b_value.(i) <- iova
        | Error `Exhausted -> r.Script.b_status.(i) <- Wire.st_exhausted
      end
      else if k = Script.k_unmap then begin
        let t0 = now_ns () in
        let res = Shard.unmap_record sh ~tenant ~iova:r.Script.b_iova.(i) in
        Span.add um t0;
        r.Script.b_status.(i) <-
          (match res with Ok () -> Wire.st_ok | Error `Not_mapped -> Wire.st_not_mapped)
      end
      else begin
        let t0 = now_ns () in
        match
          Shard.translate_record sh ~tenant ~iova:r.Script.b_iova.(i)
            ~write:r.Script.b_write.(i)
        with
        | phys ->
            Span.add tr t0;
            r.Script.b_status.(i) <- Wire.st_ok;
            r.Script.b_value.(i) <- Rio_memory.Addr.to_int phys
        | exception Rio_domain.Manager.Translation_fault ->
            Span.add tr t0;
            r.Script.b_status.(i) <- Wire.st_fault
      end
    done;
    Script.apply r
  in
  Array.iteri
    (fun i r -> while Script.fill_setup r do exec place.(i) r done)
    rings;
  for _ = 1 to batches do
    Array.iteri
      (fun i r ->
        Script.fill r;
        exec place.(i) r)
      rings
  done;
  let sum f = Array.fold_left (fun a (sh, tenant) -> a + f sh tenant) 0 place in
  let io f =
    sum (fun sh tenant -> f (Shard.iotlb_stats sh ~tenant : Rio_domain.Shared_iotlb.stats))
  in
  let p50 =
    let h = Rio_serve.Histogram.create () in
    Array.iter
      (fun sh -> Rio_serve.Histogram.merge_into ~dst:h (Shard.hist sh Shard.Translate))
      shards;
    Rio_serve.Histogram.quantile h 0.5
  in
  {
    s_ops = Array.fold_left (fun a sh -> a + Shard.total_ops sh) 0 shards;
    s_translate = tr;
    s_map = mp;
    s_unmap = um;
    hits = io (fun s -> s.hits);
    misses = io (fun s -> s.misses);
    evictions = io (fun s -> s.evictions_self + s.evictions_by_other);
    invalidations = io (fun s -> s.invalidations);
    domain_flushes = io (fun s -> s.domain_flushes);
    faults = Array.fold_left (fun a sh -> a + Shard.faults sh) 0 shards;
    probes = Array.fold_left (fun a r -> a + r.Script.probes) 0 rings;
    translate_p50_cycles = p50;
    s_ok =
      Array.for_all (fun r -> r.Script.failed = 0 && r.Script.safety = 0) rings;
  }
