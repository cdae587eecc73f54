(* The closed-loop socket generator: one thread spinning on two
   nonblocking connections, each a device ring with [Script.depth] descriptors
   outstanding. A connection posts its next batch (one write) only
   after every answer of the last batch is decoded and verified.
   Connections are served round-robin: while the generator waits on
   one ring's answers the other ring's batch is already in flight.

   A request's latency runs from the instant its batch's write
   returned to the instant its answer was decoded.

   With [trace] on, spans around the generator's own calls split its
   time into encode, wait (spinning for answers), and decode+verify. *)

open Util
module Wire = Rio_serve_net.Wire

type conn = {
  fd : Unix.file_descr;
  ring : Script.ring;
  wbuf : Bytes.t;
  rbuf : Bytes.t;
  mutable rpos : int;
  mutable rlen : int;
  resp : Wire.resp;
  mutable hello : bool;  (* hello still to send *)
  mutable req_base : int;  (* req_id of slot 0 of the batch in flight *)
  mutable next_id : int;
  mutable pending : int;  (* answers still due for the batch in flight *)
  mutable posted_at : int;
}

type stats = {
  lat : Hist.t;
  wlat : Hist.t;  (* latencies of the current window only *)
  mutable syscalls : int;
  mutable timeouts : int;
  mutable extra : int;  (* answers with an unknown or repeated req_id *)
  mutable corrupt : int;  (* translate answers still to corrupt (self-check) *)
  mutable rates : float list;  (* verified answers/s of each measured window *)
  mutable wp50s : float list;  (* median latency (ns) of each measured window *)
  enc : Span.t;
  wait : Span.t;
  dec : Span.t;
}

let create_stats () =
  {
    lat = Hist.create ();
    wlat = Hist.create ();
    syscalls = 0;
    timeouts = 0;
    extra = 0;
    corrupt = 0;
    rates = [];
    wp50s = [];
    enc = Span.create ();
    wait = Span.create ();
    dec = Span.create ();
  }

let create_conn fd ring =
  {
    fd;
    ring;
    wbuf = Bytes.create (Wire.hello_bytes + (64 * Wire.max_request_bytes ~sg_limit:1));
    rbuf = Bytes.create 65536;
    rpos = 0;
    rlen = 0;
    resp = Wire.create_resp ~sg_limit:Script.sg_limit;
    hello = true;
    req_base = 0;
    next_id = 1;
    pending = 0;
    posted_at = 0;
  }

let bdf_of idx = 0x100 + idx

let encode c =
  let r = c.ring in
  let p = ref 0 in
  if c.hello then begin
    p := Wire.encode_hello c.wbuf ~pos:0 ~bdf:(bdf_of r.Script.tenant) ~flags:0;
    c.hello <- false
  end;
  c.req_base <- c.next_id;
  let tenant = r.Script.tenant in
  for i = 0 to r.Script.n - 1 do
    let req_id = c.req_base + i in
    let k = r.Script.b_kind.(i) in
    p :=
      if k = Script.k_map then
        Wire.encode_map c.wbuf ~pos:!p ~tenant ~req_id ~phys:r.Script.b_phys.(i)
          ~bytes:Script.page
      else if k = Script.k_unmap then
        Wire.encode_unmap c.wbuf ~pos:!p ~tenant ~req_id ~iova:r.Script.b_iova.(i)
      else
        Wire.encode_translate c.wbuf ~pos:!p ~tenant ~req_id
          ~iova:r.Script.b_iova.(i) ~write:r.Script.b_write.(i)
  done;
  c.next_id <- (c.req_base + r.Script.n) land 0xFFFF_FFFF;
  if c.next_id < c.req_base then c.next_id <- 1;
  c.pending <- r.Script.n;
  !p

let write_all st c len =
  let off = ref 0 in
  while !off < len do
    match Unix.single_write c.fd c.wbuf !off (len - !off) with
    | n ->
        off := !off + n;
        st.syscalls <- st.syscalls + 1
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  done

(* Send the batch the script has just filled. *)
let post ~trace st c =
  let t0 = if trace then now_ns () else 0 in
  let len = encode c in
  if trace then Span.add st.enc t0;
  write_all st c len;
  c.posted_at <- now_ns ()

let record_answer st c ~measure =
  let resp = c.resp in
  let slot = resp.Wire.r_req_id - c.req_base in
  let r = c.ring in
  if slot < 0 || slot >= r.Script.n || r.Script.b_status.(slot) >= 0 then
    st.extra <- st.extra + 1
  else begin
    if measure then begin
      let l = now_ns () - c.posted_at in
      Hist.record st.lat l;
      Hist.record st.wlat l
    end;
    r.Script.b_status.(slot) <- resp.Wire.status;
    let k = r.Script.b_kind.(slot) in
    let v =
      if k = Script.k_map then resp.Wire.r_iova
      else if k = Script.k_unmap then 0
      else resp.Wire.r_phys
    in
    let v =
      if k = Script.k_translate && resp.Wire.status = Wire.st_ok && st.corrupt > 0
      then begin
        st.corrupt <- st.corrupt - 1;
        v lxor Script.page
      end
      else v
    in
    r.Script.b_value.(slot) <- v;
    c.pending <- c.pending - 1
  end

exception Timeout

let timeout_ns = 10_000_000_000

(* Read whatever has arrived, spinning on the nonblocking fd until
   something has: the generator never sleeps, so an answer is seen the
   moment it lands and the generator's own wake-up latency stays out
   of the server's figures. Empty reads are not counted as syscalls;
   their time is wait time. *)
let spin_read c =
  let rec go deadline k =
    match Unix.read c.fd c.rbuf c.rlen (Bytes.length c.rbuf - c.rlen) with
    | 0 -> raise Timeout
    | n -> n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        if k land 1023 = 0 then begin
          let t = now_ns () in
          let deadline = if deadline = 0 then t + timeout_ns else deadline in
          if t > deadline then raise Timeout;
          go deadline (k + 1)
        end
        else go deadline (k + 1)
  in
  go 0 1

(* Block until every answer of [c]'s batch is in, then verify it. *)
let complete ~trace ~measure st c =
  while c.pending > 0 do
    let t0 = if trace then now_ns () else 0 in
    let r = Wire.decode_response c.rbuf ~pos:c.rpos ~avail:(c.rlen - c.rpos) c.resp in
    if r > 0 then begin
      c.rpos <- c.rpos + r;
      record_answer st c ~measure;
      if trace then Span.add st.dec t0
    end
    else if r < 0 then failwith "perfbench: undecodable answer frame"
    else begin
      if c.rpos > 0 then begin
        Bytes.blit c.rbuf c.rpos c.rbuf 0 (c.rlen - c.rpos);
        c.rlen <- c.rlen - c.rpos;
        c.rpos <- 0
      end;
      let t0 = if trace then now_ns () else 0 in
      let n = spin_read c in
      if trace then Span.add st.wait t0;
      st.syscalls <- st.syscalls + 1;
      c.rlen <- c.rlen + n
    end
  done;
  let t0 = if trace then now_ns () else 0 in
  Script.apply c.ring;
  if trace then Span.add st.dec t0

(* Map every connection's live set; returns once all are mapped. *)
let setup st conns =
  Array.iter
    (fun c ->
      while Script.fill_setup c.ring do
        post ~trace:false st c;
        complete ~trace:false ~measure:false st c
      done)
    conns

let window_ns = 100_000_000

let verified conns = Array.fold_left (fun a c -> a + c.ring.Script.ok) 0 conns

(* Run the closed loop for [seconds]; returns the wall nanoseconds
   from the first post to the last answer. Every batch posted before
   the deadline is completed and counted. When measuring, the rate of
   verified answers and their median latency are also recorded per
   [window_ns] window. *)
let run ?(trace = false) ~measure ~seconds st conns =
  let t0 = now_ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let w_start = ref t0 and w_ok = ref (verified conns) in
  Array.iter
    (fun c ->
      Script.fill c.ring;
      post ~trace st c)
    conns;
  let live = ref (Array.length conns) in
  let posted = Array.make (Array.length conns) true in
  while !live > 0 do
    Array.iteri
      (fun i c ->
        if posted.(i) then begin
          complete ~trace ~measure st c;
          let t = now_ns () in
          if measure && t - !w_start >= window_ns then begin
            let ok = verified conns in
            st.rates <- (float_of_int (ok - !w_ok) /. (float_of_int (t - !w_start) /. 1e9)) :: st.rates;
            st.wp50s <- float_of_int (Hist.quantile st.wlat 0.5) :: st.wp50s;
            Hist.clear st.wlat;
            w_start := t;
            w_ok := ok
          end;
          if t < deadline then begin
            Script.fill c.ring;
            post ~trace st c
          end
          else begin
            posted.(i) <- false;
            decr live
          end
        end)
      conns
  done;
  now_ns () - t0

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
      Unix.set_nonblock fd;
      fd
  | exception e ->
      Unix.close fd;
      raise e
