(* Shard-affinity dispatch: every decoded request is written straight
   into a request cell of its shard's batch (the {!Cell} lane layout,
   preallocated at create), and batches execute in shard order at
   flush points. A tenant is pinned to one shard on first sight — hash
   of (tenant, presenting bdf) — so its domain, IOVA allocator, and
   IOTLB working set stay on one manager for the connection's
   lifetime, exactly the affinity the simulated service gets from its
   static flow partition.

   The cells are the only batch format: [flush_all] runs
   [Executor.exec] on them in place, [flush_cells] copies each onto an
   executor's ring (stamping the connection's token), and either way
   [complete_run] encodes the response cells. [enqueue], [complete]
   and the translate execute are
   allocation-free (lint manifest + the dispatch-translate bench
   gate); the colder ops (map/map_sg/unmap) pay small result/tuple
   boxes inside the manager API they call. *)

open Rio_serve

type t = {
  shards : Shard.t array;
  cap : int;  (* batch slots per shard *)
  sg_limit : int;
  rsp_max : int;
  (* tenant registry: global wire tenant -> (shard, domain slot) *)
  tenant_shard : int array;  (* -1 = unseen *)
  tenant_slot : int array;
  next_slot : int array;  (* per shard: next free domain index *)
  (* one-entry placement cache: consecutive requests overwhelmingly
     share a tenant (a client connection drives one tenant), and a
     pinned tenant's placement never changes, so a hit skips the
     registry loads entirely and can never be stale *)
  mutable last_tenant : int;  (* -1 = cold *)
  mutable last_shard : int;
  mutable last_slot : int;
  (* per-shard batches of request cells: slot [shard * cap + i] holds
     its connection in [b_conn] and its lanes at [slot * width]. A
     slot keeps its last connection after a flush and enqueue skips
     the store when it is unchanged, so a steady stream pays no GC
     write barrier per request (a dead connection is held until its
     slots are reused) *)
  count : int array;
  b_conn : Conn.t array;
  width : int;
  cells : int array;
  core : Executor.core;  (* the inline execute (flush_all) *)
  sg_iovas : int array;  (* complete's map_sg scratch *)
  mutable stats_cb : Conn.t -> int -> unit;  (* conn, req_id *)
  mutable executed : int;
  mutable flushes : int;
  mutable rejected : int;
}

let default_stats_cb conn req_id =
  let off = Conn.reserve conn (Wire.len_bytes + Wire.header_bytes + Wire.stats_payload_bytes) in
  if off < 0 then Conn.kill conn
  else begin
    Conn.commit conn
      (Wire.encode_stats_ok (Conn.wbuf conn) ~pos:off ~req_id ~ops:0 ~requests:0
         ~conns:0 ~errors:0 ~faults:0);
    Conn.completed conn
  end

let create ~shards ~batch ~sg_limit ?(max_tenants = 4096) () =
  let nshards = Array.length shards in
  if nshards < 1 then invalid_arg "Dispatch.create: shards";
  if batch < 1 then invalid_arg "Dispatch.create: batch";
  if sg_limit < 1 then invalid_arg "Dispatch.create: sg_limit";
  let slots = nshards * batch in
  let width = Cell.req_width ~sg_limit in
  let dummy =
    Conn.create ~rbuf_bytes:(Wire.max_request_bytes ~sg_limit:1) ~window:1
      ~sg_limit:1 ()
  in
  {
    shards;
    cap = batch;
    sg_limit;
    rsp_max = Wire.max_response_bytes ~sg_limit;
    tenant_shard = Array.make max_tenants (-1);
    tenant_slot = Array.make max_tenants 0;
    next_slot = Array.make nshards 0;
    last_tenant = -1;
    last_shard = 0;
    last_slot = 0;
    count = Array.make nshards 0;
    b_conn = Array.make slots dummy;
    width;
    cells = Array.make (slots * width) 0;
    core = Executor.core ~shards ~sg_limit;
    sg_iovas = Array.make sg_limit 0;
    stats_cb = default_stats_cb;
    executed = 0;
    flushes = 0;
    rejected = 0;
  }

let set_stats_cb t cb = t.stats_cb <- cb
let executed t = t.executed
let flushes t = t.flushes
let rejected t = t.rejected
let batch t = t.cap
let max_tenants t = Array.length t.tenant_shard

(* Fibonacci/Murmur-style mix of the affinity key, finished with an
   avalanche so the mod sees more than the key's low bits — without
   it, [mod 2^k] reduces to the XOR of the low tenant/bdf bits, and
   clients that step tenant and bdf together pin every tenant to
   shard 0. [land max_int] keeps it non-negative on 63-bit ints. *)
let shard_of t ~tenant ~bdf =
  let h = (tenant * 0x9E3779B1) lxor (bdf * 0x85EBCA77) in
  let h = (h lxor (h lsr 31)) * 0xC2B2AE3D in
  let h = h lxor (h lsr 16) in
  h land max_int mod Array.length t.shards

(* Answer a request with a payload-less error status right away (the
   tenant never reached a shard). Allocation-free. *)
let reject t conn ~op ~req_id =
  t.rejected <- t.rejected + 1;
  let off = Conn.reserve conn t.rsp_max in
  if off < 0 then Conn.kill conn
  else begin
    Conn.commit conn
      (Wire.encode_error (Conn.wbuf conn) ~pos:off ~op
         ~status:Wire.st_bad_request ~req_id);
    Conn.completed conn
  end

(* Append one decoded request to its shard's batch. [true] = handled
   (queued, answered as bad_request, or answered as stats); [false] =
   the shard's batch is full — flush and retry. Allocation-free: the
   registry and the batch are preallocated int arrays, and nothing of
   the caller's [req] outlives the call but plain ints. *)
let enqueue t conn req =
  let op = req.Wire.op in
  if op = Wire.op_stats then begin
    t.stats_cb conn req.Wire.req_id;
    true
  end
  else begin
    let tenant = req.Wire.tenant in
    if tenant >= Array.length t.tenant_shard then begin
      reject t conn ~op ~req_id:req.Wire.req_id;
      true
    end
    else begin
      let sh =
        if tenant = t.last_tenant then t.last_shard
        else begin
          let sh0 = t.tenant_shard.(tenant) in
          if sh0 >= 0 then begin
            t.last_tenant <- tenant;
            t.last_shard <- sh0;
            t.last_slot <- t.tenant_slot.(tenant);
            sh0
          end
          else begin
            let s = shard_of t ~tenant ~bdf:(Conn.bdf conn) in
            if t.next_slot.(s) >= Shard.tenants t.shards.(s) then -1
            else begin
              let sl = t.next_slot.(s) in
              t.tenant_shard.(tenant) <- s;
              t.tenant_slot.(tenant) <- sl;
              t.next_slot.(s) <- sl + 1;
              t.last_tenant <- tenant;
              t.last_shard <- s;
              t.last_slot <- sl;
              s
            end
          end
        end
      in
      if sh < 0 then begin
        reject t conn ~op ~req_id:req.Wire.req_id;
        true
      end
      else begin
        let c = t.count.(sh) in
        if c >= t.cap then false
        else begin
          let slot = (sh * t.cap) + c in
          let q = slot * t.width in
          let cells = t.cells in
          if t.b_conn.(slot) != conn then t.b_conn.(slot) <- conn;
          cells.(q + Cell.q_op) <- op;
          cells.(q + Cell.q_req_id) <- req.Wire.req_id;
          cells.(q + Cell.q_shard) <- sh;
          cells.(q + Cell.q_tenant) <- t.last_slot;
          if op = Wire.op_map then begin
            cells.(q + Cell.q_a) <- req.Wire.phys;
            cells.(q + Cell.q_b) <- req.Wire.bytes
          end
          else if op = Wire.op_map_sg then begin
            let n = req.Wire.nseg in
            let segs = q + Cell.q_segs in
            cells.(q + Cell.q_nseg) <- n;
            Array.blit req.Wire.seg_phys 0 cells segs n;
            Array.blit req.Wire.seg_bytes 0 cells (segs + t.sg_limit) n
          end
          else begin
            cells.(q + Cell.q_a) <- req.Wire.iova;
            cells.(q + Cell.q_b) <- (if req.Wire.write then 1 else 0)
          end;
          t.count.(sh) <- c + 1;
          true
        end
      end
    end
  end

(* The only encoder of shard results, for cells executed inline
   (flush_shard) and cells back off an executor ring (complete) alike:
   encode the [n] response cells at [pos], [pos + width], ... into
   [conn]'s write buffer behind one reservation and one commit, and
   retire their in-flight slots, counted in [executed] so the loop's
   response accounting is mode-agnostic. Admission kept [rsp_max]
   bytes free per in-flight request, so the run's reservation cannot
   fail for an admitted connection. Allocation-free: the map_sg iova
   lanes blit through the dispatcher's scratch rather than slicing the
   cell. *)
let complete_run t conn ~cell ~pos ~n =
  let off = Conn.reserve conn (n * t.rsp_max) in
  if off < 0 then Conn.kill conn
  else begin
    let b = Conn.wbuf conn in
    let fin = ref off in
    for k = 0 to n - 1 do
      let pos = pos + (k * t.width) in
      let op = cell.(pos + Cell.r_op) in
      let status = cell.(pos + Cell.r_status) in
      let req_id = cell.(pos + Cell.r_req_id) in
      fin :=
        if status <> Wire.st_ok then
          Wire.encode_error b ~pos:!fin ~op ~status ~req_id
        else if op = Wire.op_translate then
          Wire.encode_translate_ok b ~pos:!fin ~req_id
            ~phys:cell.(pos + Cell.r_value)
        else if op = Wire.op_map then
          Wire.encode_map_ok b ~pos:!fin ~req_id ~iova:cell.(pos + Cell.r_value)
        else if op = Wire.op_unmap then Wire.encode_unmap_ok b ~pos:!fin ~req_id
        else begin
          let nseg = cell.(pos + Cell.r_nseg) in
          Array.blit cell (pos + Cell.r_iovas) t.sg_iovas 0 nseg;
          Wire.encode_map_sg_ok b ~pos:!fin ~req_id ~iovas:t.sg_iovas ~n:nseg
        end;
      Conn.completed conn
    done;
    Conn.commit conn !fin;
    t.executed <- t.executed + n
  end

let complete t conn ~cell ~pos = complete_run t conn ~cell ~pos ~n:1

(* Execute and encode shard [sh]'s batch inline, one run of
   consecutive slots from the same connection at a time: every cell
   of the run goes through [Executor.exec], then [complete_run]
   encodes the run's response cells in slot order. A dead
   connection's run is skipped whole. *)
let flush_shard t sh =
  let n = t.count.(sh) in
  if n > 0 then begin
    t.flushes <- t.flushes + 1;
    let first = sh * t.cap in
    let i = ref first in
    while !i < first + n do
      let conn = t.b_conn.(!i) in
      let j = ref (!i + 1) in
      while !j < first + n && t.b_conn.(!j) == conn do
        incr j
      done;
      if Conn.alive conn then begin
        for slot = !i to !j - 1 do
          Executor.exec t.core t.cells ~pos:(slot * t.width)
        done;
        complete_run t conn ~cell:t.cells ~pos:(!i * t.width) ~n:(!j - !i)
      end;
      i := !j
    done;
    t.count.(sh) <- 0
  end

let flush_all t =
  for sh = 0 to Array.length t.shards - 1 do
    flush_shard t sh
  done

let pending t =
  let n = ref 0 in
  Array.iter (fun c -> n := !n + c) t.count;
  !n

(* Multi-domain flush: copy each batched cell into the caller's
   scratch, stamp its connection's token (the ring cannot carry the
   Conn.t itself), and hand it to [emit], which pushes it onto the
   owning executor's ring. Slots whose connection died while batched
   are dropped here, exactly like flush_shard — they never become
   in-flight cells. *)
let flush_cells t ~cell ~emit =
  for sh = 0 to Array.length t.shards - 1 do
    let n = t.count.(sh) in
    if n > 0 then begin
      t.flushes <- t.flushes + 1;
      for i = 0 to n - 1 do
        let slot = (sh * t.cap) + i in
        let conn = t.b_conn.(slot) in
        if Conn.alive conn then begin
          Array.blit t.cells (slot * t.width) cell 0 t.width;
          cell.(Cell.q_slot) <- Conn.token conn;
          emit ~shard:sh
        end
      done;
      t.count.(sh) <- 0
    end
  done
