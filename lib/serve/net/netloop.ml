(* The socket event loop: accept, read, decode, dispatch, flush,
   write. All protocol state lives in {!Conn}, all service state in
   {!Dispatch}/{!Shard}; what remains here is fd bookkeeping, the
   flush cadence, and (with [domains > 1]) the traffic between the IO
   domain and the shard executors.

   The loop is one state record [t] and top-level steps over it;
   [step] is one wakeup and runs them in a fixed order. [step] and the
   two callbacks it preallocates ([on_ready], [emit]) are zero-alloc
   hot entries of the lint manifest, so the whole per-wakeup path is
   audited; only [accept] and [tick] are cut as cold.

   Connections live in parallel arrays indexed by a slot (the
   readiness token and the {!Cell.q_slot} lane), with a free-slot
   stack; a slot is recycled only when its connection is dead AND no
   ring cell still references it. Fds register once with {!Readiness}
   and only interest *changes* are re-armed. *)

type addr = Unix_path of string | Tcp of string * int

let parse_addr s =
  let prefix p = String.length s > String.length p
                 && String.sub s 0 (String.length p) = p in
  let after p = String.sub s (String.length p) (String.length s - String.length p) in
  if prefix "unix:" then Ok (Unix_path (after "unix:"))
  else begin
    let hp = if prefix "tcp:" then after "tcp:" else s in
    match String.rindex_opt hp ':' with
    | None -> Error (Printf.sprintf "bad address %S: want unix:PATH or HOST:PORT" s)
    | Some i -> (
        let host = String.sub hp 0 i in
        let port = String.sub hp (i + 1) (String.length hp - i - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 ->
            Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
        | _ -> Error (Printf.sprintf "bad port in address %S" s))
  end

let addr_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

type config = {
  addr : addr;
  batch : int;
  window : int;
  sg_limit : int;
  max_conns : int;
  max_tenants : int;
  domains : int;
  backend : Readiness.backend;
  now_s : unit -> float;
  tick_every_s : float;
}

let default_config ~addr =
  {
    addr;
    batch = 64;
    window = 128;
    sg_limit = 16;
    max_conns = 64;
    max_tenants = 4096;
    domains = 1;
    backend = Readiness.default_backend;
    now_s = (fun () -> 0.);
    tick_every_s = 0.;
  }

type stats = {
  backend : string;
  domains : int;
  max_conns_effective : int;
  domain_ops : int array;
  mutable accepted : int;
  mutable refused : int;
  mutable closed : int;
  mutable requests : int;
  mutable responses : int;
  mutable protocol_errors : int;
  mutable batch_flushes : int;
  mutable rejected : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
}

let inet_addr_of host =
  if host = "localhost" then Unix.inet_addr_loopback
  else Unix.inet_addr_of_string host

let listen_on = function
  | Unix_path p ->
      (try Unix.unlink p with Unix.Unix_error _ -> ());
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX p);
      Unix.listen fd 64;
      Unix.set_nonblock fd;
      fd
  | Tcp (host, port) ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (inet_addr_of host, port));
      Unix.listen fd 64;
      Unix.set_nonblock fd;
      fd

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let close_listener cfg fd =
  close_fd fd;
  match cfg.addr with
  | Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | Tcp _ -> ()

(* Readiness tokens: conn slots are >= 0, the listener and the
   executor wake pipes get negative tokens. *)
let tok_listener = -1
let tok_pipe e = -2 - e
let pipe_of_tok tok = -2 - tok

let effective_domains ~domains ~nshards =
  let d = if domains < 1 then 1 else domains in
  if d > nshards then nshards else d

(* Select is bounded by FD_SETSIZE *values*, not counts: leave slack
   for the listener, wake pipes, and stdio so every accepted fd stays
   representable in an fd_set. *)
let effective_max_conns ~backend ~max_conns ~nexec =
  let cap = Readiness.max_fds backend in
  let cap = if cap = max_int then cap else cap - 16 - (2 * nexec) in
  let m = if max_conns < cap then max_conns else cap in
  if m < 1 then 1 else m

type t = {
  cfg : config;
  shards : Rio_serve.Shard.t array;
  stats : stats;
  on_tick : stats -> unit;
  dispatch : Dispatch.t;
  rsp_max : int;
  (* stats requests are answered here, outside the dispatcher's
     executed/rejected counters, so they need their own tally for the
     responses total to balance the requests total *)
  mutable stats_answered : int;
  r : Readiness.t;
  lfd : Unix.file_descr;
  l_handle : int;
  (* listener read interest; dropped while accept is out of fds *)
  mutable l_armed : bool;
  (* connection slot table *)
  cap : int;
  dummy : Conn.t;
  c_conn : Conn.t array;
  c_fd : Unix.file_descr array;
  c_handle : int array;
  c_active : bool array;
  c_interest : int array;
  c_outstanding : int array;
  free : int array;
  mutable free_top : int;
  (* executor topology: executor e owns the contiguous shard slice
     { sh | sh * nexec / nshards = e } *)
  nexec : int;
  exec_of_shard : int array;
  pipes : (Unix.file_descr * Unix.file_descr) array;
  executors : Executor.t array;
  workers : unit Domain.t array;
  (* preallocated scratch and callbacks *)
  req : Wire.req;
  req_cell : int array;
  rsp_cell : int array;
  pipe_buf : Bytes.t;
  mutable last_tick : float;
  mutable on_ready : int -> int -> unit;
  mutable emit : shard:int -> unit;
}

(* With executors running, the shard counters read here are
   single-writer plain ints mutated on another domain: a stale value,
   never a torn one (DESIGN.md §15). *)
let answer_stats t conn req_id =
  let off = Conn.reserve conn t.rsp_max in
  if off < 0 then Conn.kill conn
  else begin
    t.stats_answered <- t.stats_answered + 1;
    let ops =
      Array.fold_left (fun a s -> a + Rio_serve.Shard.total_ops s) 0 t.shards
    in
    let faults =
      Array.fold_left (fun a s -> a + Rio_serve.Shard.faults s) 0 t.shards
    in
    Conn.commit conn
      (Wire.encode_stats_ok (Conn.wbuf conn) ~pos:off ~req_id ~ops
         ~requests:t.stats.requests ~conns:t.stats.accepted
         ~errors:t.stats.protocol_errors ~faults);
    Conn.completed conn
  end

(* The one place the derived counters are brought up to date: ticks
   and the final stats both read the counters through it. *)
let stats t =
  let s = t.stats in
  s.responses <-
    Dispatch.executed t.dispatch + Dispatch.rejected t.dispatch
    + t.stats_answered;
  s.batch_flushes <- Dispatch.flushes t.dispatch;
  s.rejected <- Dispatch.rejected t.dispatch;
  for e = 0 to t.nexec - 1 do
    s.domain_ops.(e) <- Executor.executed t.executors.(e)
  done;
  s

(* ---- multi-domain plumbing ---- *)

let drain_responses t =
  for e = 0 to t.nexec - 1 do
    let ring = Executor.response_ring t.executors.(e) in
    while Spsc.try_pop ring ~dst:t.rsp_cell do
      let slot = t.rsp_cell.(Cell.r_slot) in
      t.c_outstanding.(slot) <- t.c_outstanding.(slot) - 1;
      let c = t.c_conn.(slot) in
      (* a dead conn keeps its slot until outstanding hits 0, so this
         response still resolves to the right connection — we just
         drop the encode *)
      if Conn.alive c then Dispatch.complete t.dispatch c ~cell:t.rsp_cell ~pos:0
    done
  done

(* [emit] must not fail (flush_cells contract): a full request ring
   means the executor is behind, so drain responses (unblocking it if
   it is parked on a full response ring) and retry. *)
let emit t ~shard =
  let ring = Executor.request_ring t.executors.(t.exec_of_shard.(shard)) in
  let slot = t.req_cell.(Cell.q_slot) in
  while not (Spsc.try_push ring ~src:t.req_cell) do
    drain_responses t;
    Domain.cpu_relax ()
  done;
  t.c_outstanding.(slot) <- t.c_outstanding.(slot) + 1

let flush t =
  if t.nexec = 0 then Dispatch.flush_all t.dispatch
  else Dispatch.flush_cells t.dispatch ~cell:t.req_cell ~emit:t.emit

let drain_pipe t fd =
  let continue = ref true in
  while !continue do
    match Unix.read fd t.pipe_buf 0 (Bytes.length t.pipe_buf) with
    | 0 -> continue := false
    | _ -> ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> continue := false
  done

(* ---- per-connection steps ---- *)

let set_listening t on =
  if t.l_armed <> on then begin
    t.l_armed <- on;
    Readiness.interest t.r ~handle:t.l_handle ~read:on ~write:false
  end

let add_conn t fd =
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  t.free_top <- t.free_top - 1;
  let slot = t.free.(t.free_top) in
  let c = Conn.create ~window:t.cfg.window ~sg_limit:t.cfg.sg_limit () in
  Conn.set_token c slot;
  t.c_conn.(slot) <- c;
  t.c_fd.(slot) <- fd;
  t.c_active.(slot) <- true;
  t.c_outstanding.(slot) <- 0;
  t.c_handle.(slot) <- Readiness.register t.r fd ~token:slot;
  Readiness.interest t.r ~handle:t.c_handle.(slot) ~read:true ~write:false;
  t.c_interest.(slot) <- Readiness.ev_read;
  t.stats.accepted <- t.stats.accepted + 1

(* Accept every pending connection. Out of descriptors (EMFILE/ENFILE)
   the connection stays queued and the listener stays readable, so the
   listener is disarmed — a level-triggered wait would otherwise spin —
   until [reap] frees a descriptor. *)
let accept t =
  let continue = ref true in
  while !continue do
    match Unix.accept ~cloexec:true t.lfd with
    | fd, _ ->
        if t.free_top = 0 then begin
          close_fd fd;
          t.stats.refused <- t.stats.refused + 1
        end
        else add_conn t fd
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ()
    | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
        set_listening t false;
        continue := false
  done

(* Decode everything admissible out of a connection's read buffer.
   A [false] from enqueue means the target shard's batch is full:
   flush everything (amortized work is the point of the batch) and
   retry — the retry cannot fail on a fresh batch. *)
let decode t conn =
  let continue = ref true in
  while !continue && Conn.can_admit conn do
    let rr = Conn.next conn t.req in
    if rr > 0 then begin
      t.stats.requests <- t.stats.requests + 1;
      if not (Dispatch.enqueue t.dispatch conn t.req) then begin
        flush t;
        ignore (Dispatch.enqueue t.dispatch conn t.req : bool)
      end
    end
    else begin
      if rr < 0 then t.stats.protocol_errors <- t.stats.protocol_errors + 1;
      continue := false
    end
  done

let read t slot =
  let conn = t.c_conn.(slot) in
  let cap = Conn.read_capacity conn in
  if cap > 0 then begin
    match Unix.read t.c_fd.(slot) (Conn.rbuf conn) (Conn.read_offset conn) cap with
    | 0 -> Conn.kill conn
    | n ->
        t.stats.bytes_in <- t.stats.bytes_in + n;
        Conn.fed conn n;
        decode t conn
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        Conn.kill conn
  end

let write t slot =
  let conn = t.c_conn.(slot) in
  let q = Conn.queued conn in
  if q > 0 then begin
    match Unix.single_write t.c_fd.(slot) (Conn.wbuf conn) (Conn.wpos conn) q with
    | n ->
        t.stats.bytes_out <- t.stats.bytes_out + n;
        Conn.consumed conn n
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        Conn.kill conn
  end

(* The readiness callback ([t.on_ready] forwards here). Reads are
   handled as they surface; writes wait for the post-flush pass so
   freshly encoded responses ride the same write call. *)
let on_ready t token bits =
  if token >= 0 then begin
    if bits land Readiness.ev_read <> 0 then read t token
    else if bits land Readiness.ev_err <> 0 then
      (* hangup/error with nothing readable: the peer is gone and
         queued responses are undeliverable *)
      Conn.kill t.c_conn.(token)
  end
  else if token = tok_listener then accept t
  else drain_pipe t (fst t.pipes.(pipe_of_tok token))

(* Opportunistic writes for freshly encoded responses; a write on a
   momentarily full socket just re-arms write interest. *)
let write_pass t =
  for slot = 0 to t.cap - 1 do
    if t.c_active.(slot) && Conn.want_write t.c_conn.(slot) then write t slot
  done

let reap t =
  for slot = 0 to t.cap - 1 do
    if
      t.c_active.(slot)
      && (not (Conn.alive t.c_conn.(slot)))
      && t.c_outstanding.(slot) = 0
    then begin
      Readiness.unregister t.r ~handle:t.c_handle.(slot);
      close_fd t.c_fd.(slot);
      t.c_active.(slot) <- false;
      t.c_conn.(slot) <- t.dummy;
      t.c_handle.(slot) <- -1;
      t.free.(t.free_top) <- slot;
      t.free_top <- t.free_top + 1;
      t.stats.closed <- t.stats.closed + 1;
      (* a descriptor is free again: resume accepting *)
      set_listening t true
    end
  done

let arm_interest t =
  for slot = 0 to t.cap - 1 do
    if t.c_active.(slot) then begin
      let c = t.c_conn.(slot) in
      let bits =
        (if Conn.want_read c then Readiness.ev_read else 0)
        lor if Conn.want_write c then Readiness.ev_write else 0
      in
      if bits <> t.c_interest.(slot) then begin
        t.c_interest.(slot) <- bits;
        Readiness.interest t.r ~handle:t.c_handle.(slot)
          ~read:(bits land Readiness.ev_read <> 0)
          ~write:(bits land Readiness.ev_write <> 0)
      end
    end
  done

let tick t =
  let now = t.cfg.now_s () in
  if now -. t.last_tick >= t.cfg.tick_every_s then begin
    t.last_tick <- now;
    t.on_tick (stats t)
  end

let step t =
  ignore (Readiness.wait t.r ~timeout_ms:50 : int);
  Readiness.iter_ready t.r t.on_ready;
  (* One flush per wakeup: everything decoded this iteration executes
     (inline, or via the rings) in shard-ordered batches. *)
  flush t;
  if t.nexec > 0 then drain_responses t;
  write_pass t;
  reap t;
  arm_interest t;
  if t.cfg.tick_every_s > 0. then tick t

let create ?(on_tick = fun (_ : stats) -> ()) ~shards (cfg : config) =
  let nshards = Array.length shards in
  let domains = effective_domains ~domains:cfg.domains ~nshards in
  let nexec = if domains > 1 then domains else 0 in
  let cap =
    effective_max_conns ~backend:cfg.backend ~max_conns:cfg.max_conns ~nexec
  in
  let dispatch =
    Dispatch.create ~shards ~batch:cfg.batch ~sg_limit:cfg.sg_limit
      ~max_tenants:cfg.max_tenants ()
  in
  let lfd = listen_on cfg.addr in
  let r = Readiness.create cfg.backend in
  let l_handle = Readiness.register r lfd ~token:tok_listener in
  Readiness.interest r ~handle:l_handle ~read:true ~write:false;
  let dummy =
    Conn.create ~rbuf_bytes:(Wire.max_request_bytes ~sg_limit:1) ~window:1
      ~sg_limit:1 ()
  in
  Conn.kill dummy;
  let ring_cap =
    let want = cap * cfg.window in
    let want = if want < 1024 then 1024 else want in
    if want > 8192 then 8192 else want
  in
  let pipes =
    Array.init nexec (fun _ ->
        let rfd, wfd = Unix.pipe ~cloexec:true () in
        Unix.set_nonblock rfd;
        Unix.set_nonblock wfd;
        (rfd, wfd))
  in
  Array.iteri
    (fun e (rfd, _) ->
      let h = Readiness.register r rfd ~token:(tok_pipe e) in
      Readiness.interest r ~handle:h ~read:true ~write:false)
    pipes;
  let executors =
    Array.map
      (fun (_, wfd) ->
        Executor.create ~shards ~sg_limit:cfg.sg_limit ~ring_cap ~wake_fd:wfd)
      pipes
  in
  let workers =
    Array.map (fun ex -> Domain.spawn (fun () -> Executor.run ex)) executors
  in
  let t =
    {
      cfg;
      shards;
      stats =
        {
          backend = Readiness.backend_name cfg.backend;
          domains;
          max_conns_effective = cap;
          domain_ops = Array.make nexec 0;
          accepted = 0;
          refused = 0;
          closed = 0;
          requests = 0;
          responses = 0;
          protocol_errors = 0;
          batch_flushes = 0;
          rejected = 0;
          bytes_in = 0;
          bytes_out = 0;
        };
      on_tick;
      dispatch;
      rsp_max = Wire.max_response_bytes ~sg_limit:cfg.sg_limit;
      stats_answered = 0;
      r;
      lfd;
      l_handle;
      l_armed = true;
      cap;
      dummy;
      c_conn = Array.make cap dummy;
      c_fd = Array.make cap Unix.stdin;
      c_handle = Array.make cap (-1);
      c_active = Array.make cap false;
      c_interest = Array.make cap 0;
      c_outstanding = Array.make cap 0;
      free = Array.init cap (fun i -> cap - 1 - i);
      free_top = cap;
      nexec;
      exec_of_shard = Array.init nshards (fun sh -> sh * nexec / nshards);
      pipes;
      executors;
      workers;
      req = Wire.create_req ~sg_limit:cfg.sg_limit;
      req_cell = Array.make (Cell.req_width ~sg_limit:cfg.sg_limit) 0;
      rsp_cell = Array.make (Cell.rsp_width ~sg_limit:cfg.sg_limit) 0;
      pipe_buf = Bytes.create 64;
      last_tick = cfg.now_s ();
      on_ready = (fun _ _ -> ());
      emit = (fun ~shard:_ -> ());
    }
  in
  t.on_ready <- (fun token bits -> on_ready t token bits);
  t.emit <- (fun ~shard -> emit t ~shard);
  Dispatch.set_stats_cb t.dispatch (fun conn req_id -> answer_stats t conn req_id);
  t

(* Graceful shutdown: execute what is batched; with executors, wait for
   every in-flight cell to come home, then stop and join the domains;
   best-effort drain each connection's queued responses; close
   everything. *)
let shutdown t =
  flush t;
  if t.nexec > 0 then begin
    while Array.fold_left ( + ) 0 t.c_outstanding > 0 do
      drain_responses t;
      Domain.cpu_relax ()
    done;
    Array.iter Executor.request_stop t.executors;
    Array.iter Domain.join t.workers;
    drain_responses t
  end;
  for slot = 0 to t.cap - 1 do
    if t.c_active.(slot) then begin
      let c = t.c_conn.(slot) in
      let tries = ref 8 in
      while Conn.queued c > 0 && !tries > 0 && Conn.alive c do
        decr tries;
        write t slot;
        if Conn.queued c > 0 && !tries > 0 then Unix.sleepf 0.05
      done;
      close_fd t.c_fd.(slot);
      t.stats.closed <- t.stats.closed + 1
    end
  done;
  Array.iter
    (fun (rfd, wfd) ->
      close_fd rfd;
      close_fd wfd)
    t.pipes;
  close_listener t.cfg t.lfd;
  stats t

let serve ?(stop = Rio_exec.Flag.create ()) ?on_tick ~shards cfg =
  let t = create ?on_tick ~shards cfg in
  while not (Rio_exec.Flag.get stop) do
    step t
  done;
  shutdown t
