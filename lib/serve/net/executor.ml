(* Shard execution: the one place a request cell becomes a response
   cell, in place. [exec] is shared by both flush modes — the IO
   domain runs it inline on its own batch cells ([Dispatch.flush_all]),
   and an executor domain runs it on the cells it pops off its request
   ring ([step]). See the mli for the topology story.

   Everything in [t] runs on the executor's domain except [create] and
   [request_stop]; cross-domain traffic is exactly the two SPSC rings,
   the stop flag, and wake bytes down the pipe. *)

open Rio_memory
open Rio_serve

type core = {
  shards : Shard.t array;
  sg_limit : int;
  segs : (Addr.phys * int) array; (* map_sg scratch *)
  iovas : int array;
}

let core ~shards ~sg_limit =
  {
    shards;
    sg_limit;
    segs = Array.make sg_limit (Addr.phys_of_int 0, 0);
    iovas = Array.make sg_limit 0;
  }

(* Each op reads every request lane it needs before writing the
   response lanes that overlay them (Cell). *)

(* The steady-state op: the fault is the constant
   Manager.Translation_fault (pre-allocated, already counted by the
   shard), so the whole op is allocation-free. *)
let exec_translate sh q ~pos =
  let tenant = q.(pos + Cell.q_tenant) in
  let iova = q.(pos + Cell.q_a) in
  let write = q.(pos + Cell.q_b) <> 0 in
  match Shard.translate_record sh ~tenant ~iova ~write with
  | phys ->
      q.(pos + Cell.r_status) <- Wire.st_ok;
      q.(pos + Cell.r_value) <- (phys :> int)
  | exception Rio_domain.Manager.Translation_fault ->
      q.(pos + Cell.r_status) <- Wire.st_fault

let exec_map sh q ~pos =
  let tenant = q.(pos + Cell.q_tenant) in
  let phys = Addr.phys_of_int q.(pos + Cell.q_a) in
  match Shard.map_record sh ~tenant ~phys ~bytes:q.(pos + Cell.q_b) with
  | Ok iova ->
      q.(pos + Cell.r_status) <- Wire.st_ok;
      q.(pos + Cell.r_value) <- iova
  | Error `Exhausted -> q.(pos + Cell.r_status) <- Wire.st_exhausted

let exec_unmap sh q ~pos =
  let tenant = q.(pos + Cell.q_tenant) in
  match Shard.unmap_record sh ~tenant ~iova:q.(pos + Cell.q_a) with
  | Ok () -> q.(pos + Cell.r_status) <- Wire.st_ok
  | Error `Not_mapped -> q.(pos + Cell.r_status) <- Wire.st_not_mapped

let exec_map_sg c sh q ~pos =
  let tenant = q.(pos + Cell.q_tenant) in
  let nseg = q.(pos + Cell.q_nseg) in
  let segs = pos + Cell.q_segs in
  for k = 0 to nseg - 1 do
    c.segs.(k) <-
      (Addr.phys_of_int q.(segs + k), q.(segs + c.sg_limit + k))
  done;
  match Shard.map_sg_record sh ~tenant ~segs:c.segs ~n:nseg ~iovas:c.iovas with
  | Ok _span ->
      q.(pos + Cell.r_status) <- Wire.st_ok;
      q.(pos + Cell.r_nseg) <- nseg;
      Array.blit c.iovas 0 q (pos + Cell.r_iovas) nseg
  | Error `Exhausted -> q.(pos + Cell.r_status) <- Wire.st_exhausted

let exec c q ~pos =
  let op = q.(pos + Cell.q_op) in
  let sh = c.shards.(q.(pos + Cell.q_shard)) in
  if op = Wire.op_translate then exec_translate sh q ~pos
  else if op = Wire.op_map then exec_map sh q ~pos
  else if op = Wire.op_unmap then exec_unmap sh q ~pos
  else exec_map_sg c sh q ~pos

type t = {
  core : core;
  req : Spsc.t;
  rsp : Spsc.t;
  stop : bool Atomic.t;
  wake_fd : Unix.file_descr;
  wake_byte : Bytes.t;
  qc : int array; (* cell scratch: popped request, pushed response *)
  mutable executed : int; (* plain int: single writer (this domain) *)
}

let create ~shards ~sg_limit ~ring_cap ~wake_fd =
  {
    core = core ~shards ~sg_limit;
    req = Spsc.create ~cap:ring_cap ~width:(Cell.req_width ~sg_limit);
    rsp = Spsc.create ~cap:ring_cap ~width:(Cell.rsp_width ~sg_limit);
    stop = Atomic.make false;
    wake_fd;
    wake_byte = Bytes.make 1 '!';
    qc = Array.make (Cell.req_width ~sg_limit) 0;
    executed = 0;
  }

let request_ring t = t.req
let response_ring t = t.rsp
let request_stop t = Atomic.set t.stop true
let executed t = t.executed

(* The response ring can only be momentarily full: the IO domain
   drains every response ring on every wakeup and never blocks on our
   request ring, so spinning here cannot deadlock. *)
let push_rsp t =
  while not (Spsc.try_push t.rsp ~src:t.qc) do
    Rio_exec.Domains.relax ()
  done

let step t =
  let n = ref 0 in
  while Spsc.try_pop t.req ~dst:t.qc do
    incr n;
    exec t.core t.qc ~pos:0;
    push_rsp t;
    t.executed <- t.executed + 1
  done;
  !n

let wake t =
  match Unix.single_write t.wake_fd t.wake_byte 0 1 with
  | _ -> ()
  | exception Unix.Unix_error _ ->
      (* EAGAIN: pipe full, a wakeup is already pending *) ()

let run t =
  let spins = ref 0 in
  let live = ref true in
  while !live do
    if step t > 0 then begin
      wake t;
      spins := 0
    end
    else if Atomic.get t.stop then
      (* stop is checked only after an empty step, so every cell
         pushed before request_stop is executed before exit *)
      live := false
    else begin
      incr spins;
      if !spins <= 64 then Rio_exec.Domains.relax ()
      else Unix.sleepf 5e-05
    end
  done
