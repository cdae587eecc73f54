(* Tests for the socket transport layer (rio_serve_net): QCheck
   round-trip properties of the riommu-wire/1 codec (decode o encode =
   id for every op, requests and responses), typed protocol errors on
   truncated / oversized / garbage frames, byte-at-a-time partial-read
   reassembly through Conn, the backpressure admission invariant,
   the shard-affinity dispatcher (pinning, batch-full handoff,
   bad_request rejection, killed connections dropped from a batch,
   end-to-end map/translate through a real shard with responses
   decoded back out of the connection's write buffer), the inline
   flush against the executor ring path, byte for byte, and the whole
   event loop (Netloop) driven one wakeup at a time over a unix
   socket, including running out of file descriptors. *)

module Wire = Rio_serve_net.Wire
module Conn = Rio_serve_net.Conn
module Dispatch = Rio_serve_net.Dispatch
module Spsc = Rio_serve_net.Spsc
module Cell = Rio_serve_net.Cell
module Executor = Rio_serve_net.Executor
module Readiness = Rio_serve_net.Readiness
module Netloop = Rio_serve_net.Netloop
module Shard = Rio_serve.Shard
module Shared_iotlb = Rio_domain.Shared_iotlb
module Addr = Rio_memory.Addr

let sg_limit = 8

(* {1 Wire: request round trips} *)

(* Wire u64s carry 62-bit values; exercise the full range, including
   the mask boundary. *)
let u62_gen =
  QCheck.Gen.(
    oneof
      [
        int_bound 0xFFFF;
        int_bound 0xFFFF_FFFF;
        map (fun x -> x land 0x3FFF_FFFF_FFFF_FFFF) (int_range 0 max_int);
        return 0x3FFF_FFFF_FFFF_FFFF;
        return 0;
      ])

let u32_gen = QCheck.Gen.(int_bound 0xFFFF_FFFF)
let tenant_gen = QCheck.Gen.(int_bound 0xFFFF)
let pos_gen = QCheck.Gen.(int_bound 32)

let buf_of ~pos ~garbage =
  let b = Bytes.make (pos + 512) (Char.chr garbage) in
  b

(* Encode one request at a random offset in a dirty buffer, decode it
   back, and require exact field equality plus exact consumed length.
   Decoding with one byte less than the frame must return 0. *)
let prop_request_roundtrip =
  QCheck.Test.make ~count:500 ~name:"wire: request decode o encode = id"
    QCheck.(
      make
        Gen.(
          tup4 (int_bound 4) tenant_gen u32_gen
            (tup4 pos_gen (int_bound 255) (list_size (int_range 1 sg_limit) (tup2 u62_gen u32_gen)) (tup3 u62_gen u32_gen bool))))
    (fun (opk, tenant, req_id, (pos, garbage, segs, (va, nbytes, write))) ->
      let b = buf_of ~pos ~garbage in
      let seg_phys = Array.of_list (List.map fst segs) in
      let seg_bytes = Array.of_list (List.map snd segs) in
      let n = Array.length seg_phys in
      let fin =
        match opk with
        | 0 -> Wire.encode_map b ~pos ~tenant ~req_id ~phys:va ~bytes:nbytes
        | 1 -> Wire.encode_unmap b ~pos ~tenant ~req_id ~iova:va
        | 2 -> Wire.encode_map_sg b ~pos ~tenant ~req_id ~seg_phys ~seg_bytes ~n
        | 3 -> Wire.encode_translate b ~pos ~tenant ~req_id ~iova:va ~write
        | _ -> Wire.encode_stats b ~pos ~tenant ~req_id
      in
      let frame = fin - pos in
      let req = Wire.create_req ~sg_limit in
      (* a one-byte-short window is always "need more" *)
      let short = Wire.decode_request b ~pos ~avail:(frame - 1) req in
      let r = Wire.decode_request b ~pos ~avail:frame req in
      short = 0 && r = frame
      && req.Wire.tenant = tenant
      && req.Wire.req_id = req_id
      &&
      match opk with
      | 0 ->
          req.Wire.op = Wire.op_map
          && req.Wire.phys = va
          && req.Wire.bytes = nbytes
      | 1 -> req.Wire.op = Wire.op_unmap && req.Wire.iova = va
      | 2 ->
          req.Wire.op = Wire.op_map_sg
          && req.Wire.nseg = n
          && Array.sub req.Wire.seg_phys 0 n = seg_phys
          && Array.sub req.Wire.seg_bytes 0 n = seg_bytes
      | 3 ->
          req.Wire.op = Wire.op_translate
          && req.Wire.iova = va
          && req.Wire.write = write
      | _ -> req.Wire.op = Wire.op_stats)

(* {1 Wire: response round trips} *)

let prop_response_roundtrip =
  QCheck.Test.make ~count:500 ~name:"wire: response decode o encode = id"
    QCheck.(
      make
        Gen.(
          tup4 (int_bound 5) u32_gen pos_gen
            (tup2 (list_size (int_range 1 sg_limit) u62_gen) (tup2 u62_gen (int_bound 4)))))
    (fun (kind, req_id, pos, (iovas_l, (v, status))) ->
      let b = buf_of ~pos ~garbage:0xEE in
      let iovas = Array.of_list iovas_l in
      let n = Array.length iovas in
      let fin =
        match kind with
        | 0 -> Wire.encode_map_ok b ~pos ~req_id ~iova:v
        | 1 -> Wire.encode_unmap_ok b ~pos ~req_id
        | 2 -> Wire.encode_translate_ok b ~pos ~req_id ~phys:v
        | 3 -> Wire.encode_map_sg_ok b ~pos ~req_id ~iovas ~n
        | 4 ->
            Wire.encode_stats_ok b ~pos ~req_id ~ops:v ~requests:(v lxor 1)
              ~conns:3 ~errors:0 ~faults:7
        | _ ->
            Wire.encode_error b ~pos ~op:Wire.op_translate
              ~status:(1 + (status mod 4))
              ~req_id
      in
      let frame = fin - pos in
      let resp = Wire.create_resp ~sg_limit in
      let short = Wire.decode_response b ~pos ~avail:(frame - 1) resp in
      let r = Wire.decode_response b ~pos ~avail:frame resp in
      short = 0 && r = frame
      && resp.Wire.r_req_id = req_id
      &&
      match kind with
      | 0 ->
          resp.Wire.r_op = Wire.op_map
          && resp.Wire.status = Wire.st_ok
          && resp.Wire.r_iova = v
      | 1 -> resp.Wire.r_op = Wire.op_unmap && resp.Wire.status = Wire.st_ok
      | 2 ->
          resp.Wire.r_op = Wire.op_translate
          && resp.Wire.status = Wire.st_ok
          && resp.Wire.r_phys = v
      | 3 ->
          resp.Wire.r_op = Wire.op_map_sg
          && resp.Wire.status = Wire.st_ok
          && resp.Wire.r_nseg = n
          && Array.sub resp.Wire.r_iovas 0 n = iovas
      | 4 ->
          resp.Wire.r_op = Wire.op_stats
          && resp.Wire.s_ops = v
          && resp.Wire.s_requests = v lxor 1
          && resp.Wire.s_conns = 3
          && resp.Wire.s_errors = 0
          && resp.Wire.s_faults = 7
      | _ -> resp.Wire.r_op = Wire.op_translate && resp.Wire.status <> Wire.st_ok)

(* {1 Wire: typed protocol errors} *)

let code = Wire.error_code

let check_decode name expect buf ~avail =
  let req = Wire.create_req ~sg_limit in
  Alcotest.(check int) name expect (Wire.decode_request buf ~pos:0 ~avail req)

let test_wire_errors () =
  let b = Bytes.create 256 in
  (* truncated: every strict prefix of a valid frame decodes to 0 *)
  let fin = Wire.encode_translate b ~pos:0 ~tenant:3 ~req_id:9 ~iova:0x1000 ~write:true in
  for avail = 0 to fin - 1 do
    check_decode "truncated prefix needs more" 0 b ~avail
  done;
  (* oversized: a hostile length claim fails as soon as the length word
     is readable, without waiting for the claimed body *)
  let huge = Wire.max_body ~sg_limit + 1 in
  Bytes.set_uint16_le b 0 (huge land 0xFFFF);
  Bytes.set_uint16_le b 2 (huge lsr 16);
  check_decode "oversized rejected from the length word alone" (code Wire.Oversized)
    b ~avail:4;
  (* bad length: shorter than a request header *)
  Bytes.set_uint16_le b 0 4;
  Bytes.set_uint16_le b 2 0;
  check_decode "undersized length" (code Wire.Bad_length) b ~avail:4;
  (* garbage magic *)
  let fin = Wire.encode_unmap b ~pos:0 ~tenant:1 ~req_id:2 ~iova:0x2000 in
  Bytes.set_uint8 b 4 0x55;
  check_decode "corrupt magic" (code Wire.Bad_magic) b ~avail:fin;
  (* unknown op *)
  let fin = Wire.encode_stats b ~pos:0 ~tenant:1 ~req_id:2 in
  Bytes.set_uint8 b 5 0x7F;
  check_decode "unknown op" (code Wire.Bad_op) b ~avail:fin;
  (* payload length inconsistent with the op *)
  let fin = Wire.encode_map b ~pos:0 ~tenant:1 ~req_id:2 ~phys:0x3000 ~bytes:64 in
  Bytes.set_uint8 b 5 Wire.op_unmap;
  check_decode "map-sized payload on unmap" (code Wire.Bad_length) b ~avail:fin;
  (* map_sg with nseg = 0 and with nseg > sg_limit *)
  let seg_phys = Array.make 1 0x4000 and seg_bytes = Array.make 1 64 in
  let fin = Wire.encode_map_sg b ~pos:0 ~tenant:1 ~req_id:2 ~seg_phys ~seg_bytes ~n:1 in
  Bytes.set_uint16_le b 12 0;
  check_decode "nseg = 0" (code Wire.Bad_segs) b ~avail:fin;
  Bytes.set_uint16_le b 12 (sg_limit + 1);
  check_decode "nseg above limit" (code Wire.Bad_segs) b ~avail:fin;
  (* hello: truncated then corrupt *)
  let h = Bytes.create 32 in
  let _ = Wire.encode_hello h ~pos:0 ~bdf:0x0100 ~flags:0 in
  Alcotest.(check int) "truncated hello needs more" 0
    (Wire.decode_hello h ~pos:0 ~avail:(Wire.hello_bytes - 1));
  Alcotest.(check int) "hello bdf" 0x0100 (Wire.hello_bdf h ~pos:0);
  Bytes.set_uint8 h 0 (Char.code 'X');
  Alcotest.(check int) "corrupt hello magic" (code Wire.Bad_hello)
    (Wire.decode_hello h ~pos:0 ~avail:Wire.hello_bytes);
  (* error_of_code is the inverse of error_code on the whole range *)
  List.iter
    (fun e -> Alcotest.(check bool) "error_of_code inverse" true
        (Wire.error_of_code (Wire.error_code e) = e))
    [ Wire.Bad_magic; Wire.Bad_op; Wire.Bad_length; Wire.Oversized;
      Wire.Bad_segs; Wire.Bad_hello ]

(* {1 Conn: byte-at-a-time reassembly} *)

(* A hello plus three frames trickled in one byte at a time must decode
   to exactly those three requests, in order, each completing only on
   its final byte. *)
let test_conn_reassembly () =
  let stream = Bytes.create 512 in
  let p = Wire.encode_hello stream ~pos:0 ~bdf:0x0342 ~flags:0 in
  let p = Wire.encode_map stream ~pos:p ~tenant:2 ~req_id:100 ~phys:0x5000 ~bytes:4096 in
  let p = Wire.encode_translate stream ~pos:p ~tenant:2 ~req_id:101 ~iova:0x9000 ~write:false in
  let total = Wire.encode_stats stream ~pos:p ~tenant:0 ~req_id:102 in
  let conn = Conn.create ~window:8 ~sg_limit () in
  let req = Wire.create_req ~sg_limit in
  let decoded = ref [] in
  for i = 0 to total - 1 do
    Conn.feed conn stream ~pos:i ~len:1;
    let r = Conn.next conn req in
    if r > 0 then decoded := (req.Wire.op, req.Wire.req_id) :: !decoded
    else Alcotest.(check int) "partial frame: need more" 0 r
  done;
  Alcotest.(check (list (pair int int)))
    "frames complete exactly on their last byte"
    [ (Wire.op_map, 100); (Wire.op_translate, 101); (Wire.op_stats, 102) ]
    (List.rev !decoded);
  Alcotest.(check bool) "hello consumed" true (Conn.hello_done conn);
  Alcotest.(check int) "bdf from hello" 0x0342 (Conn.bdf conn);
  Alcotest.(check int) "window grew per request" 3 (Conn.inflight conn);
  Alcotest.(check int) "lifetime request count" 3 (Conn.requests conn)

(* A protocol error mid-stream kills the connection and nothing
   decodes after it. *)
let test_conn_kill_on_garbage () =
  let conn = Conn.create ~window:4 ~sg_limit () in
  let b = Bytes.create 64 in
  let p = Wire.encode_hello b ~pos:0 ~bdf:1 ~flags:0 in
  let fin = Wire.encode_unmap b ~pos:p ~tenant:0 ~req_id:7 ~iova:0x1000 in
  Bytes.set_uint8 b (p + 4) 0x00 (* corrupt the frame magic *);
  Conn.feed conn b ~pos:0 ~len:fin;
  let req = Wire.create_req ~sg_limit in
  Alcotest.(check int) "typed error surfaces" (code Wire.Bad_magic)
    (Conn.next conn req);
  Alcotest.(check bool) "connection dead" false (Conn.alive conn);
  Alcotest.(check int) "dead conn decodes nothing" 0 (Conn.next conn req)

(* Admission closes exactly when the window fills, and reserve never
   fails while admission is open — the backpressure invariant the
   event loop relies on. *)
let test_conn_backpressure () =
  let window = 4 in
  let conn = Conn.create ~window ~sg_limit () in
  let b = Bytes.create 1024 in
  let p = ref (Wire.encode_hello b ~pos:0 ~bdf:1 ~flags:0) in
  for i = 0 to window - 1 do
    p := Wire.encode_translate b ~pos:!p ~tenant:0 ~req_id:i ~iova:0x1000 ~write:false
  done;
  Conn.feed conn b ~pos:0 ~len:!p;
  let req = Wire.create_req ~sg_limit in
  let rsp_max = Wire.max_response_bytes ~sg_limit in
  for _ = 1 to window do
    Alcotest.(check bool) "admission open below window" true (Conn.can_admit conn);
    Alcotest.(check bool) "decode succeeds" true (Conn.next conn req > 0);
    let off = Conn.reserve conn rsp_max in
    Alcotest.(check bool) "reserve holds while admitted" true (off >= 0);
    Conn.commit conn
      (Wire.encode_translate_ok (Conn.wbuf conn) ~pos:off ~req_id:req.Wire.req_id
         ~phys:0xAB000)
  done;
  Alcotest.(check bool) "window full: admission closed" false (Conn.can_admit conn);
  Alcotest.(check bool) "window full: reads off" false (Conn.want_read conn);
  Alcotest.(check bool) "responses queued: writes on" true (Conn.want_write conn);
  (* retiring requests reopens admission; draining clears want_write *)
  for _ = 1 to window do Conn.completed conn done;
  Alcotest.(check bool) "drained window readmits" true (Conn.can_admit conn);
  Conn.consumed conn (Conn.queued conn);
  Alcotest.(check bool) "no queued bytes: writes off" false (Conn.want_write conn);
  Alcotest.(check int) "responses counted" window (Conn.responses conn)

(* {1 Dispatch: affinity, batching, rejection} *)

let make_shards n =
  Array.init n (fun id ->
      Shard.create ~id ~tenants:4 ~iotlb_capacity:64 ~iotlb_policy:Shared_iotlb.Shared
        ~rcache:true ())

let hello_conn ~window =
  let conn = Conn.create ~window ~sg_limit () in
  let b = Bytes.create Wire.hello_bytes in
  let n = Wire.encode_hello b ~pos:0 ~bdf:0x0100 ~flags:0 in
  Conn.feed conn b ~pos:0 ~len:n;
  let req = Wire.create_req ~sg_limit in
  assert (Conn.next conn req = 0);
  conn

(* Feed one encoded request through Conn.next then Dispatch.enqueue. *)
let push d conn req b fin =
  Conn.feed conn b ~pos:0 ~len:fin;
  Alcotest.(check bool) "frame decodes" true (Conn.next conn req > 0);
  Dispatch.enqueue d conn req

let drain_one conn resp =
  let r =
    Wire.decode_response (Conn.wbuf conn) ~pos:(Conn.wpos conn)
      ~avail:(Conn.queued conn) resp
  in
  Alcotest.(check bool) "a response is queued" true (r > 0);
  Conn.consumed conn r

let test_dispatch_affinity () =
  let shards = make_shards 4 in
  let d = Dispatch.create ~shards ~batch:16 ~sg_limit () in
  (* the pinning hash is deterministic and spreads tenants *)
  let spread = Array.make 4 0 in
  for tenant = 0 to 63 do
    let s = Dispatch.shard_of d ~tenant ~bdf:0x0100 in
    Alcotest.(check int) "affinity hash is stable" s
      (Dispatch.shard_of d ~tenant ~bdf:0x0100);
    spread.(s) <- spread.(s) + 1
  done;
  Array.iteri
    (fun i n ->
      Alcotest.(check bool) (Printf.sprintf "shard %d gets tenants" i) true (n > 0))
    spread

let test_dispatch_map_translate_roundtrip () =
  let shards = make_shards 2 in
  let d = Dispatch.create ~shards ~batch:8 ~sg_limit () in
  let conn = hello_conn ~window:16 in
  let req = Wire.create_req ~sg_limit in
  let b = Bytes.create 256 in
  let phys = (Shard.next_buf shards.(0) :> int) in
  let fin = Wire.encode_map b ~pos:0 ~tenant:1 ~req_id:500 ~phys ~bytes:4096 in
  Alcotest.(check bool) "map enqueued" true (push d conn req b fin);
  Dispatch.flush_all d;
  let resp = Wire.create_resp ~sg_limit in
  drain_one conn resp;
  Alcotest.(check int) "map answers its req_id" 500 resp.Wire.r_req_id;
  Alcotest.(check int) "map ok" Wire.st_ok resp.Wire.status;
  let iova = resp.Wire.r_iova in
  (* translate the iova the map returned; the shard must hand back the
     physical frame we mapped *)
  let fin = Wire.encode_translate b ~pos:0 ~tenant:1 ~req_id:501 ~iova ~write:true in
  Alcotest.(check bool) "translate enqueued" true (push d conn req b fin);
  Dispatch.flush_all d;
  drain_one conn resp;
  Alcotest.(check int) "translate answers its req_id" 501 resp.Wire.r_req_id;
  Alcotest.(check int) "translate ok" Wire.st_ok resp.Wire.status;
  Alcotest.(check int) "translate returns the mapped frame" phys resp.Wire.r_phys;
  (* unmap, then a second translate faults *)
  let fin = Wire.encode_unmap b ~pos:0 ~tenant:1 ~req_id:502 ~iova in
  Alcotest.(check bool) "unmap enqueued" true (push d conn req b fin);
  let fin = Wire.encode_translate b ~pos:0 ~tenant:1 ~req_id:503 ~iova ~write:false in
  Alcotest.(check bool) "stale translate enqueued" true (push d conn req b fin);
  Dispatch.flush_all d;
  drain_one conn resp;
  Alcotest.(check int) "unmap ok" Wire.st_ok resp.Wire.status;
  drain_one conn resp;
  Alcotest.(check int) "stale translate faults" Wire.st_fault resp.Wire.status;
  Alcotest.(check int) "fault echoes req_id" 503 resp.Wire.r_req_id;
  Alcotest.(check int) "all four executed" 4 (Dispatch.executed d);
  Alcotest.(check int) "window fully retired" 0 (Conn.inflight conn)

let test_dispatch_batch_full () =
  let shards = make_shards 1 in
  let batch = 4 in
  let d = Dispatch.create ~shards ~batch ~sg_limit () in
  let conn = hello_conn ~window:16 in
  let req = Wire.create_req ~sg_limit in
  let b = Bytes.create 256 in
  let enqueue_translate i =
    let fin =
      Wire.encode_translate b ~pos:0 ~tenant:0 ~req_id:i ~iova:0x7000 ~write:false
    in
    push d conn req b fin
  in
  for i = 0 to batch - 1 do
    Alcotest.(check bool) "fits in batch" true (enqueue_translate i)
  done;
  Alcotest.(check int) "batch holds the requests" batch (Dispatch.pending d);
  Alcotest.(check bool) "full batch refuses" false (enqueue_translate batch);
  Dispatch.flush_all d;
  Alcotest.(check int) "flush empties" 0 (Dispatch.pending d);
  Alcotest.(check bool) "retry after flush succeeds" true
    (Dispatch.enqueue d conn req);
  Dispatch.flush_all d;
  Alcotest.(check int) "all executed" (batch + 1) (Dispatch.executed d);
  Alcotest.(check int) "two non-empty flushes" 2 (Dispatch.flushes d)

let test_dispatch_rejects_bad_tenant () =
  let shards = make_shards 2 in
  let d = Dispatch.create ~shards ~batch:8 ~sg_limit ~max_tenants:16 () in
  let conn = hello_conn ~window:8 in
  let req = Wire.create_req ~sg_limit in
  let b = Bytes.create 256 in
  let fin = Wire.encode_translate b ~pos:0 ~tenant:99 ~req_id:7 ~iova:0 ~write:false in
  Alcotest.(check bool) "rejection is handled, not batched" true
    (push d conn req b fin);
  Alcotest.(check int) "nothing pending" 0 (Dispatch.pending d);
  Alcotest.(check int) "rejected counter" 1 (Dispatch.rejected d);
  let resp = Wire.create_resp ~sg_limit in
  drain_one conn resp;
  Alcotest.(check int) "bad_request status" Wire.st_bad_request resp.Wire.status;
  Alcotest.(check int) "rejection echoes req_id" 7 resp.Wire.r_req_id;
  Alcotest.(check int) "window retired on rejection" 0 (Conn.inflight conn)

(* A connection killed while its requests sit in a batch: on either
   flush its slots are dropped — no shard op runs, no cell is emitted,
   nothing counts as executed — while the other connection's request
   in the same batch is still answered. *)
let test_dispatch_killed_conn_dropped () =
  let run ~cells =
    let shards = make_shards 2 in
    let d = Dispatch.create ~shards ~batch:8 ~sg_limit () in
    let victim = hello_conn ~window:16 and other = hello_conn ~window:16 in
    Conn.set_token victim 0;
    Conn.set_token other 1;
    let req = Wire.create_req ~sg_limit in
    let b = Bytes.create 256 in
    (* one tenant, so all three maps share one shard batch *)
    let map conn req_id =
      let phys = (Shard.next_buf shards.(0) :> int) in
      let fin = Wire.encode_map b ~pos:0 ~tenant:1 ~req_id ~phys ~bytes:4096 in
      Alcotest.(check bool) "map enqueued" true (push d conn req b fin)
    in
    map victim 1;
    map other 2;
    map victim 3;
    Alcotest.(check int) "all three batched" 3 (Dispatch.pending d);
    Conn.kill victim;
    let total_ops () =
      Array.fold_left (fun a s -> a + Shard.total_ops s) 0 shards
    in
    let ops0 = total_ops () and executed0 = Dispatch.executed d in
    (if cells then begin
       let rd, wr = Unix.pipe ~cloexec:true () in
       let ex = Executor.create ~shards ~sg_limit ~ring_cap:16 ~wake_fd:wr in
       let cell = Array.make (Cell.req_width ~sg_limit) 0 in
       let rsp = Array.make (Cell.rsp_width ~sg_limit) 0 in
       let emitted = ref 0 in
       Dispatch.flush_cells d ~cell ~emit:(fun ~shard:_ ->
           incr emitted;
           Alcotest.(check int) "only the live conn's cell" 1
             cell.(Cell.q_slot);
           ignore (Spsc.try_push (Executor.request_ring ex) ~src:cell : bool));
       Alcotest.(check int) "one cell emitted" 1 !emitted;
       Alcotest.(check int) "executor ran it" 1 (Executor.step ex);
       Alcotest.(check bool) "its response pops" true
         (Spsc.try_pop (Executor.response_ring ex) ~dst:rsp);
       Dispatch.complete d other ~cell:rsp ~pos:0;
       Unix.close rd;
       Unix.close wr
     end
     else Dispatch.flush_all d);
    Alcotest.(check int) "batch emptied" 0 (Dispatch.pending d);
    Alcotest.(check int) "one shard op" (ops0 + 1) (total_ops ());
    Alcotest.(check int) "one executed" (executed0 + 1) (Dispatch.executed d);
    Alcotest.(check int) "nothing sent to the killed conn" 0
      (Conn.queued victim);
    let resp = Wire.create_resp ~sg_limit in
    drain_one other resp;
    Alcotest.(check int) "the other conn is answered" 2 resp.Wire.r_req_id;
    Alcotest.(check int) "its map ok" Wire.st_ok resp.Wire.status;
    Alcotest.(check int) "and only once" 0 (Conn.queued other)
  in
  run ~cells:false;
  run ~cells:true

(* {1 SPSC ring: oracle equivalence and boundaries} *)

(* Drive a random push/pop schedule against a Queue.t oracle: pushes
   succeed exactly while the oracle holds fewer than [capacity] cells,
   pops return exactly the oracle's FIFO front, lane-for-lane. *)
let prop_spsc_oracle =
  QCheck.Test.make ~count:300 ~name:"spsc: matches queue oracle"
    QCheck.(
      make
        Gen.(
          tup3 (int_range 1 16) (int_range 1 4)
            (list_size (int_range 0 200) bool)))
    (fun (cap, width, ops) ->
      let r = Spsc.create ~cap ~width in
      let oracle = Queue.create () in
      let counter = ref 0 in
      let src = Array.make width 0 in
      let dst = Array.make width 0 in
      List.for_all
        (fun is_push ->
          if is_push then begin
            incr counter;
            Array.iteri (fun i _ -> src.(i) <- (!counter * 31) + i) src;
            let pushed = Spsc.try_push r ~src in
            let had_room = Queue.length oracle < Spsc.capacity r in
            if pushed then Queue.push (Array.copy src) oracle;
            pushed = had_room
          end
          else begin
            let popped = Spsc.try_pop r ~dst in
            match Queue.take_opt oracle with
            | None -> not popped
            | Some expect -> popped && expect = dst
          end)
        ops
      && Spsc.length r = Queue.length oracle
      && Spsc.is_empty r = Queue.is_empty oracle)

let test_spsc_boundaries () =
  let width = 3 in
  let r = Spsc.create ~cap:3 ~width in
  Alcotest.(check int) "capacity rounds to a power of two" 4 (Spsc.capacity r);
  Alcotest.(check int) "width kept" width (Spsc.width r);
  let src = Array.make width 0 in
  let dst = Array.make width 0 in
  Alcotest.(check bool) "empty pop fails" false (Spsc.try_pop r ~dst);
  Alcotest.(check bool) "empty at creation" true (Spsc.is_empty r);
  for k = 1 to 4 do
    src.(0) <- k;
    src.(width - 1) <- k * 7;
    Alcotest.(check bool) "push while room" true (Spsc.try_push r ~src)
  done;
  Alcotest.(check bool) "full push fails" false (Spsc.try_push r ~src);
  Alcotest.(check int) "length at capacity" 4 (Spsc.length r);
  (* wrap the cursors past the mask: pop two, push two, drain all *)
  for k = 1 to 2 do
    Alcotest.(check bool) "pop succeeds" true (Spsc.try_pop r ~dst);
    Alcotest.(check int) "fifo order" k dst.(0);
    Alcotest.(check int) "last lane intact" (k * 7) dst.(width - 1)
  done;
  for k = 5 to 6 do
    src.(0) <- k;
    src.(width - 1) <- k * 7;
    Alcotest.(check bool) "push after wrap" true (Spsc.try_push r ~src)
  done;
  for k = 3 to 6 do
    Alcotest.(check bool) "drain succeeds" true (Spsc.try_pop r ~dst);
    Alcotest.(check int) "wrapped fifo order" k dst.(0)
  done;
  Alcotest.(check bool) "drained ring is empty" true (Spsc.is_empty r);
  Alcotest.(check bool) "drained pop fails" false (Spsc.try_pop r ~dst)

(* {1 Readiness: both backends against real pipes} *)

let readiness_pipe_test backend () =
  let r = Readiness.create backend in
  Alcotest.(check bool) "backend echoes" true (Readiness.backend r = backend);
  let a_rd, a_wr = Unix.pipe ~cloexec:true () in
  let b_rd, b_wr = Unix.pipe ~cloexec:true () in
  let ha = Readiness.register r a_rd ~token:10 in
  let hb = Readiness.register r b_rd ~token:20 in
  Readiness.interest r ~handle:ha ~read:true ~write:false;
  Readiness.interest r ~handle:hb ~read:true ~write:false;
  Alcotest.(check int) "two registered" 2 (Readiness.registered r);
  Alcotest.(check int) "nothing ready" 0 (Readiness.wait r ~timeout_ms:0);
  ignore (Unix.write b_wr (Bytes.make 1 'x') 0 1);
  Alcotest.(check int) "one ready" 1 (Readiness.wait r ~timeout_ms:1000);
  let seen = ref [] in
  Readiness.iter_ready r (fun tok bits -> seen := (tok, bits) :: !seen);
  (match !seen with
  | [ (tok, bits) ] ->
      Alcotest.(check int) "token routes back" 20 tok;
      Alcotest.(check bool) "read bit set" true
        (bits land Readiness.ev_read <> 0)
  | _ -> Alcotest.fail "expected exactly one ready token");
  (* unregister swap-compacts the dense slots; the survivor still
     routes under its own token *)
  Readiness.unregister r ~handle:hb;
  Unix.close b_rd;
  Unix.close b_wr;
  Alcotest.(check int) "one registered" 1 (Readiness.registered r);
  ignore (Unix.write a_wr (Bytes.make 1 'y') 0 1);
  Alcotest.(check int) "survivor ready" 1 (Readiness.wait r ~timeout_ms:1000);
  let tok = ref (-1) in
  Readiness.iter_ready r (fun t _ -> tok := t);
  Alcotest.(check int) "survivor token" 10 !tok;
  (* write interest on an unclogged pipe reports ready immediately *)
  let hw = Readiness.register r a_wr ~token:30 in
  Readiness.interest r ~handle:hw ~read:false ~write:true;
  Alcotest.(check bool) "writable counted" true
    (Readiness.wait r ~timeout_ms:1000 >= 1);
  let wseen = ref false in
  Readiness.iter_ready r (fun t bits ->
      if t = 30 && bits land Readiness.ev_write <> 0 then wseen := true);
  Alcotest.(check bool) "write bit on its token" true !wseen;
  Readiness.unregister r ~handle:hw;
  Readiness.unregister r ~handle:ha;
  Alcotest.(check int) "all recycled" 0 (Readiness.registered r);
  Unix.close a_rd;
  Unix.close a_wr

(* {1 Executor: cells through the ring, byte for byte} *)

(* One step of a generated request script. Connections and tenants are
   small indices; [idx] picks an IOVA this tenant was handed earlier
   (live or already unmapped) or, past the end of that list, one it
   never had. *)
type script_op =
  | S_map of int * int  (* conn, tenant *)
  | S_map_sg of int * int * int  (* conn, tenant, segments *)
  | S_translate of int * int * int * bool  (* conn, tenant, idx, write *)
  | S_unmap of int * int * int  (* conn, tenant, idx *)
  | S_bad_tenant of int * int  (* conn, tenant >= max_tenants *)
  | S_flush

let script_max_tenants = 8

let pp_script_op = function
  | S_map (c, t) -> Printf.sprintf "map c%d t%d" c t
  | S_map_sg (c, t, n) -> Printf.sprintf "map_sg c%d t%d n%d" c t n
  | S_translate (c, t, i, w) -> Printf.sprintf "translate c%d t%d #%d w%b" c t i w
  | S_unmap (c, t, i) -> Printf.sprintf "unmap c%d t%d #%d" c t i
  | S_bad_tenant (c, t) -> Printf.sprintf "bad c%d t%d" c t
  | S_flush -> "flush"

let script_gen =
  let open QCheck.Gen in
  let conn = int_bound 1 and tenant = int_bound 3 and idx = int_bound 7 in
  list_size (int_range 1 60)
    (frequency
       [
         (3, map2 (fun c t -> S_map (c, t)) conn tenant);
         (1, map3 (fun c t n -> S_map_sg (c, t, n)) conn tenant (int_range 1 3));
         ( 4,
           map3
             (fun (c, t) i w -> S_translate (c, t, i, w))
             (pair conn tenant) idx bool );
         (2, map3 (fun c t i -> S_unmap (c, t, i)) conn tenant idx);
         ( 1,
           map2
             (fun c t -> S_bad_tenant (c, t))
             conn
             (int_range script_max_tenants (script_max_tenants + 40)) );
         (1, return S_flush);
       ])

(* One side of the differential run: a dispatcher over its own shard
   set, two connections (tokens 0 and 1), and everything each
   connection has been sent so far. *)
type side = {
  d : Dispatch.t;
  conns : Conn.t array;
  req : Wire.req;
  out : Buffer.t array;
}

let make_side shards =
  {
    d =
      Dispatch.create ~shards ~batch:4 ~sg_limit
        ~max_tenants:script_max_tenants ();
    conns =
      Array.init 2 (fun token ->
          let conn = hello_conn ~window:128 in
          Conn.set_token conn token;
          conn);
    req = Wire.create_req ~sg_limit;
    out = Array.init 2 (fun _ -> Buffer.create 1024);
  }

(* Decode one frame on this side's connection and enqueue it; a full
   batch is flushed and the request retried, as the event loop does. *)
let side_submit s ~flush c b fin =
  let conn = s.conns.(c) in
  Conn.feed conn b ~pos:0 ~len:fin;
  if Conn.next conn s.req <= 0 then failwith "script frame does not decode";
  if not (Dispatch.enqueue s.d conn s.req) then begin
    flush ();
    if not (Dispatch.enqueue s.d conn s.req) then failwith "retry after flush"
  end

(* Move each connection's queued response bytes into its transcript,
   returning the new bytes of each. *)
let side_collect s =
  Array.mapi
    (fun c conn ->
      let q = Conn.queued conn in
      let fresh = Bytes.sub (Conn.wbuf conn) (Conn.wpos conn) q in
      Buffer.add_bytes s.out.(c) fresh;
      Conn.consumed conn q;
      fresh)
    s.conns

(* The multi-domain hand-off run inline on one thread: pack the batch
   into request cells ([flush_cells]), push them through a real SPSC
   ring into an [Executor], [step] it, pop the response cells back and
   [complete] each into the connection its [r_slot] names. *)
let ring_flush ex s =
  let cell = Array.make (Cell.req_width ~sg_limit) 0 in
  let rsp = Array.make (Cell.rsp_width ~sg_limit) 0 in
  fun () ->
    Dispatch.flush_cells s.d ~cell ~emit:(fun ~shard:_ ->
        if not (Spsc.try_push (Executor.request_ring ex) ~src:cell) then
          failwith "request ring full");
    ignore (Executor.step ex : int);
    while Spsc.try_pop (Executor.response_ring ex) ~dst:rsp do
      Dispatch.complete s.d s.conns.(rsp.(Cell.r_slot)) ~cell:rsp ~pos:0
    done

(* The same generated script — maps, map_sgs, translates and unmaps of
   live, stale and never-mapped IOVAs, out-of-range tenants, flush
   points — runs through the inline path ([flush_all]) on one shard
   set and through the ring path ([flush_cells] -> [Executor.step] ->
   [complete]) on an identical twin. Every connection must receive
   byte-identical response streams. The IOVAs later requests name are
   read back from the inline side's responses, so a twin that handed
   out different ones would answer differently. *)
let prop_executor_step_roundtrip =
  QCheck.Test.make ~count:200 ~name:"cells through the ring"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_script_op ops))
       script_gen)
    (fun script ->
      let inline = make_side (make_shards 2) in
      let ring_shards = make_shards 2 in
      let ring = make_side ring_shards in
      let rd, wr = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock wr;
      let ex = Executor.create ~shards:ring_shards ~sg_limit ~ring_cap:16 ~wake_fd:wr in
      let flush_inline () = Dispatch.flush_all inline.d in
      let flush_ring = ring_flush ex ring in
      (* per tenant, every IOVA handed out so far (newest first) *)
      let known = Array.make 4 [] in
      let tenant_of = Hashtbl.create 64 in
      let resp = Wire.create_resp ~sg_limit in
      let learn fresh =
        let pos = ref 0 in
        while !pos < Bytes.length fresh do
          let r =
            Wire.decode_response fresh ~pos:!pos
              ~avail:(Bytes.length fresh - !pos) resp
          in
          if r <= 0 then failwith "response stream does not decode";
          pos := !pos + r;
          (match Hashtbl.find_opt tenant_of resp.Wire.r_req_id with
          | Some t when resp.Wire.status = Wire.st_ok ->
              if resp.Wire.r_op = Wire.op_map then
                known.(t) <- resp.Wire.r_iova :: known.(t)
              else if resp.Wire.r_op = Wire.op_map_sg then
                for k = 0 to resp.Wire.r_nseg - 1 do
                  known.(t) <- resp.Wire.r_iovas.(k) :: known.(t)
                done
          | _ -> ())
        done
      in
      let sync () =
        flush_inline ();
        flush_ring ();
        Array.iter learn (side_collect inline);
        ignore (side_collect ring : Bytes.t array)
      in
      let iova_of t i =
        match List.nth_opt known.(t) i with
        | Some iova -> iova
        | None -> 0x40_0000_0000 + (i * Addr.page_size)
      in
      let b = Bytes.create 512 in
      List.iteri
        (fun req_id op ->
          let send c tenant fin =
            Hashtbl.replace tenant_of req_id tenant;
            side_submit inline ~flush:flush_inline c b fin;
            side_submit ring ~flush:flush_ring c b fin
          in
          match op with
          | S_map (c, t) ->
              let phys = (Shard.next_buf ring_shards.(0) :> int) in
              send c t
                (Wire.encode_map b ~pos:0 ~tenant:t ~req_id ~phys
                   ~bytes:Addr.page_size)
          | S_map_sg (c, t, n) ->
              let seg_phys =
                Array.init n (fun _ -> (Shard.next_buf ring_shards.(0) :> int))
              in
              send c t
                (Wire.encode_map_sg b ~pos:0 ~tenant:t ~req_id ~seg_phys
                   ~seg_bytes:(Array.make n Addr.page_size) ~n)
          | S_translate (c, t, i, write) ->
              send c t
                (Wire.encode_translate b ~pos:0 ~tenant:t ~req_id
                   ~iova:(iova_of t i) ~write)
          | S_unmap (c, t, i) ->
              send c t
                (Wire.encode_unmap b ~pos:0 ~tenant:t ~req_id
                   ~iova:(iova_of t i))
          | S_bad_tenant (c, t) ->
              send c 0
                (Wire.encode_translate b ~pos:0 ~tenant:t ~req_id ~iova:0
                   ~write:false)
          | S_flush -> sync ())
        script;
      sync ();
      Unix.close rd;
      Unix.close wr;
      let answered =
        Array.fold_left (fun a buf -> a + Buffer.length buf) 0 inline.out
      in
      for c = 0 to 1 do
        let a = Buffer.contents inline.out.(c)
        and r = Buffer.contents ring.out.(c) in
        if a <> r then
          QCheck.Test.fail_reportf
            "conn %d: inline sent %d bytes, ring path %d; first difference at %d"
            c (String.length a) (String.length r)
            (let i = ref 0 in
             while !i < String.length a && !i < String.length r && a.[!i] = r.[!i] do
               incr i
             done;
             !i);
        if Conn.inflight inline.conns.(c) <> 0 || Conn.inflight ring.conns.(c) <> 0
        then QCheck.Test.fail_reportf "conn %d: window not fully retired" c
      done;
      (answered > 0 || List.for_all (( = ) S_flush) script)
      && Dispatch.executed inline.d = Dispatch.executed ring.d
      && Dispatch.rejected inline.d = Dispatch.rejected ring.d
      && Executor.executed ex = Dispatch.executed ring.d)


(* {1 Netloop: the event loop, one wakeup at a time} *)

(* A fresh unix-socket path in its own temp dir. *)
let temp_sock () =
  let dir = Filename.temp_file "riommu-net" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Filename.concat dir "s.sock"

type client = { fd : Unix.file_descr; got : Buffer.t }

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.set_nonblock fd;
  { fd; got = Buffer.create 256 }

let frame = Bytes.create 512

let send c n =
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.single_write c.fd frame !off (n - !off)
  done

let send_hello c = send c (Wire.encode_hello frame ~pos:0 ~bdf:0x0100 ~flags:0)

(* Everything the server has written to [c] so far. *)
let pull c =
  let b = Bytes.create 4096 in
  let rec go () =
    match Unix.read c.fd b 0 (Bytes.length b) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes c.got b 0 n;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ()

(* The decoded responses received by [c], in order. *)
let responses c =
  let b = Buffer.to_bytes c.got in
  let rec go pos acc =
    let r = Wire.create_resp ~sg_limit in
    let n = Wire.decode_response b ~pos ~avail:(Bytes.length b - pos) r in
    if n > 0 then go (pos + n) (r :: acc) else List.rev acc
  in
  go 0 []

(* Step the loop until [cond] holds (bounded: a step waits at most
   50 ms, so this gives up after a few seconds). *)
let step_until t clients what cond =
  let rec go k =
    List.iter pull clients;
    if not (cond ()) then
      if k = 0 then Alcotest.failf "netloop: timed out waiting for %s" what
      else begin
        Netloop.step t;
        go (k - 1)
      end
  in
  go 200

let got_n c n () = List.length (responses c) >= n

(* Two clients on tenants pinned to different shards, so each
   connection's responses come from one executor in order and the
   byte streams do not depend on executor timing. Client a runs a
   map/map_sg/translate/unmap script in three rounds; client b maps and
   translates, then leaves mid-frame. Returns each client's response
   bytes and the loop's final stats. *)
let netloop_script ~domains =
  let shards = make_shards 2 in
  let probe = Dispatch.create ~shards ~batch:1 ~sg_limit () in
  let tenant_on sh =
    let rec find t =
      if Dispatch.shard_of probe ~tenant:t ~bdf:0x0100 = sh then t else find (t + 1)
    in
    find 0
  in
  let ta = tenant_on 0 and tb = tenant_on 1 in
  let path = temp_sock () in
  let cfg =
    { (Netloop.default_config ~addr:(Netloop.Unix_path path)) with domains; sg_limit }
  in
  let t = Netloop.create ~shards cfg in
  let a = connect path and b = connect path in
  let clients = [ a; b ] in
  let map c ~tenant ~req_id ~phys ~bytes =
    send c (Wire.encode_map frame ~pos:0 ~tenant ~req_id ~phys ~bytes)
  in
  let translate c ~tenant ~req_id ~iova =
    send c (Wire.encode_translate frame ~pos:0 ~tenant ~req_id ~iova ~write:false)
  in
  let unmap c ~tenant ~req_id ~iova =
    send c (Wire.encode_unmap frame ~pos:0 ~tenant ~req_id ~iova)
  in
  (* round 1: maps *)
  send_hello a;
  send_hello b;
  map a ~tenant:ta ~req_id:1 ~phys:0x10_0000 ~bytes:4096;
  map a ~tenant:ta ~req_id:2 ~phys:0x20_0000 ~bytes:8192;
  send a
    (Wire.encode_map_sg frame ~pos:0 ~tenant:ta ~req_id:3
       ~seg_phys:[| 0x30_0000; 0x40_0000 |] ~seg_bytes:[| 4096; 4096 |] ~n:2);
  map b ~tenant:tb ~req_id:1 ~phys:0x50_0000 ~bytes:4096;
  step_until t clients "round 1" (fun () -> got_n a 3 () && got_n b 1 ());
  let iova c k = (List.nth (responses c) k).Wire.r_iova in
  let a1 = iova a 0 and a2 = iova a 1 in
  let sg1 = (List.nth (responses a) 2).Wire.r_iovas.(1) in
  (* round 2: translate, unmap, translate-after-unmap *)
  translate a ~tenant:ta ~req_id:4 ~iova:a1;
  unmap a ~tenant:ta ~req_id:5 ~iova:a1;
  translate a ~tenant:ta ~req_id:6 ~iova:a1;
  translate a ~tenant:ta ~req_id:7 ~iova:sg1;
  unmap a ~tenant:ta ~req_id:8 ~iova:a2;
  translate b ~tenant:tb ~req_id:2 ~iova:(iova b 0);
  step_until t clients "round 2" (fun () -> got_n a 8 () && got_n b 2 ());
  (* b leaves halfway through a frame *)
  let n = Wire.encode_translate frame ~pos:0 ~tenant:tb ~req_id:3 ~iova:0 ~write:false in
  send b (n / 2);
  Unix.close b.fd;
  step_until t [ a ] "b reaped" (fun () -> (Netloop.stats t).Netloop.closed = 1);
  (* round 3: a is still served *)
  translate a ~tenant:ta ~req_id:9 ~iova:a2;
  step_until t [ a ] "round 3" (got_n a 9);
  let st = Netloop.shutdown t in
  Unix.close a.fd;
  Alcotest.(check bool) "socket path unlinked" false (Sys.file_exists path);
  Sys.rmdir (Filename.dirname path);
  (Buffer.contents a.got, Buffer.contents b.got, responses a, st)

let test_netloop_script () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let a1, b1, ra, st1 = netloop_script ~domains:1 in
  let a2, b2, _, st2 = netloop_script ~domains:2 in
  Alcotest.(check int) "two executor domains" 2 st2.Netloop.domains;
  Alcotest.(check string) "client a: same bytes at 1 and 2 domains" a1 a2;
  Alcotest.(check string) "client b: same bytes at 1 and 2 domains" b1 b2;
  let status k = (List.nth ra k).Wire.status in
  Alcotest.(check (list int)) "req ids in order" [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.map (fun r -> r.Wire.r_req_id) ra);
  Alcotest.(check int) "translate returns the mapped frame" 0x10_0000
    (List.nth ra 3).Wire.r_phys;
  Alcotest.(check int) "unmap ok" Wire.st_ok (status 4);
  Alcotest.(check int) "translate after unmap faults" Wire.st_fault (status 5);
  Alcotest.(check int) "map_sg segment translates" 0x40_0000 (List.nth ra 6).Wire.r_phys;
  Alcotest.(check int) "translate after its unmap faults" Wire.st_fault (status 8);
  List.iter
    (fun (st : Netloop.stats) ->
      Alcotest.(check int) "requests" 11 st.requests;
      Alcotest.(check int) "requests = responses" st.requests st.responses;
      Alcotest.(check int) "accepted" 2 st.accepted;
      Alcotest.(check int) "accepted = closed" st.accepted st.closed;
      Alcotest.(check int) "no protocol errors" 0 st.protocol_errors)
    [ st1; st2 ]

(* Run out of file descriptors: under a small [ulimit -n], connect
   clients until the loop's accept fails. The loop must keep serving
   the connections it has, resume accepting once a connection closes,
   and shut down cleanly. Runs in a child process (this executable,
   re-executed under the limit); [Error] carries what went wrong. *)
let fd_exhaustion () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let path = temp_sock () in
  let cfg = { (Netloop.default_config ~addr:(Netloop.Unix_path path)) with max_conns = 200 } in
  let t = Netloop.create ~shards:(make_shards 1) cfg in
  let accepted () = (Netloop.stats t).Netloop.accepted in
  (* one spare descriptor, released if the client side runs out first
     so that the last client is always the one the loop cannot accept *)
  let spare = ref (Some (Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0)) in
  let rec open_client () =
    match connect path with
    | c -> c
    | exception Unix.Unix_error (Unix.EMFILE, _, _) -> (
        match !spare with
        | Some fd ->
            Unix.close fd;
            spare := None;
            open_client ()
        | None -> failwith "client side out of descriptors")
  in
  let rec fill live =
    let c = open_client () in
    let before = accepted () in
    Netloop.step t;
    Netloop.step t;
    if accepted () > before then fill (c :: live) else (c, List.rev live)
  in
  let pending, live = fill [] in
  let n = accepted () in
  if n < 2 then failwith "fewer than two connections before exhaustion";
  let first = List.hd live and second = List.nth live 1 in
  let request c req_id =
    send_hello c;
    send c (Wire.encode_map frame ~pos:0 ~tenant:0 ~req_id ~phys:0x10_0000 ~bytes:4096)
  in
  request first 1;
  request pending 2;
  step_until t [ first ] "an answer while out of descriptors" (got_n first 1);
  if accepted () <> n then failwith "accepted while out of descriptors";
  Unix.close second.fd;
  step_until t [ pending ] "the pending connection's answer" (got_n pending 1);
  let st = Netloop.shutdown t in
  List.iter (fun c -> if c != second then Unix.close c.fd) (pending :: live);
  Option.iter Unix.close !spare;
  if st.accepted <> n + 1 then failwith "pending connection not accepted";
  if st.accepted <> st.closed then failwith "accepted <> closed";
  if st.requests <> 2 || st.responses <> 2 then failwith "requests <> responses";
  if Sys.file_exists path then failwith "socket path left behind";
  Sys.rmdir (Filename.dirname path)

let fd_exhaustion_flag = "--fd-exhaustion-child"

let test_netloop_fd_exhaustion () =
  let pid =
    Unix.create_process "/bin/sh"
      [| "sh"; "-c"; "ulimit -n 64 && exec \"$0\" \"$1\""; Sys.executable_name;
         fd_exhaustion_flag |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED n -> Alcotest.failf "fd-exhaustion child exited %d" n
  | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
      Alcotest.failf "fd-exhaustion child killed by signal %d" n

(* {1 Runner} *)

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = fd_exhaustion_flag then begin
    (try fd_exhaustion ()
     with e ->
       prerr_endline ("fd exhaustion: " ^ Printexc.to_string e);
       exit 1);
    exit 0
  end;
  Alcotest.run "rio_serve_net"
    [
      ( "wire",
        [
          QCheck_alcotest.to_alcotest prop_request_roundtrip;
          QCheck_alcotest.to_alcotest prop_response_roundtrip;
          Alcotest.test_case "typed protocol errors" `Quick test_wire_errors;
        ] );
      ( "conn",
        [
          Alcotest.test_case "byte-at-a-time reassembly" `Quick
            test_conn_reassembly;
          Alcotest.test_case "killed on garbage" `Quick test_conn_kill_on_garbage;
          Alcotest.test_case "backpressure admission" `Quick
            test_conn_backpressure;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "affinity pinning" `Quick test_dispatch_affinity;
          Alcotest.test_case "map/translate/unmap roundtrip" `Quick
            test_dispatch_map_translate_roundtrip;
          Alcotest.test_case "batch-full handoff" `Quick test_dispatch_batch_full;
          Alcotest.test_case "bad tenant rejected" `Quick
            test_dispatch_rejects_bad_tenant;
          Alcotest.test_case "killed conn dropped from batch" `Quick
            test_dispatch_killed_conn_dropped;
        ] );
      ( "spsc",
        [
          QCheck_alcotest.to_alcotest prop_spsc_oracle;
          Alcotest.test_case "full/empty/wraparound" `Quick
            test_spsc_boundaries;
        ] );
      ( "readiness",
        [
          Alcotest.test_case "select backend" `Quick
            (readiness_pipe_test Readiness.Select);
          Alcotest.test_case "poll backend" `Quick
            (readiness_pipe_test Readiness.Poll);
        ] );
      ( "executor",
        [
          QCheck_alcotest.to_alcotest prop_executor_step_roundtrip;
        ] );
      ( "netloop",
        [
          Alcotest.test_case "script over a unix socket at 1 and 2 domains"
            `Quick test_netloop_script;
          Alcotest.test_case "out of file descriptors keeps serving" `Quick
            test_netloop_fd_exhaustion;
        ] );
    ]
