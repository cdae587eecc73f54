(* Model checking of the two lock-free/locked protocols the parallel
   harness rests on, exhaustively over interleavings with dscheck.

   dscheck explores every schedule of spawned "domains" whose shared
   state lives in its TracedAtomic cells, so the protocols are
   re-stated here against those primitives rather than run through
   Exec.Pool directly (which spawns real domains dscheck cannot
   preempt). The models mirror the code shape:

   - {b Pool steal path} (lib/exec/pool.ml): every task
     index is claimed with a fetch-and-add on its slice cursor, both by
     the owner draining its slice and by a thief stealing from the
     fullest victim. The property: no task is executed twice and none
     is lost, under every interleaving of owner and thief.

   - {b Memo per-key slot} (lib/exec/memo.ml): two workers race to
     fill one key's slot. The lock acquisition is modeled as a CAS
     try-lock (dscheck has no mutexes); the loser observes the
     winner's published value instead of recomputing. The property:
     the computation runs at most once and every finisher reads it.

   - {b SPSC ring hand-off} (lib/serve/net/spsc.ml): the bounded
     single-producer/single-consumer ring carrying request cells
     between the IO domain and a shard executor. Cursors run
     unbounded and are masked per access; a lane is written plainly
     and published by the [tail] store, consumed plainly and released
     by the [head] store. The property: the consumer observes a
     strict in-order prefix of what the producer published — no loss,
     no duplication, no reorder, no read of an unpublished lane —
     under every interleaving.

   This file is only compiled when the optional [dscheck] library is
   available: the (select) in test/dune picks it then and
   test_dscheck.stub.ml, a clean skip, everywhere else (it is
   exercised by the TSan CI job, which installs dscheck). *)

module Atomic = Dscheck.TracedAtomic

(* {1 Pool steal path} *)

(* Two workers, three tasks: worker 0 owns [0,2), worker 1 owns [2,3).
   Worker 1 drains its slice then steals from worker 0's cursor, as in
   Pool.run_domains. [executed.(k)] counts claims of task k. *)
let pool_steal_model () =
  let n = 3 in
  let lo = [| 0; 2; n |] in
  let cursors = [| Atomic.make lo.(0); Atomic.make lo.(1) |] in
  let executed = Array.init n (fun _ -> Atomic.make 0) in
  let claim q =
    let k = Atomic.fetch_and_add cursors.(q) 1 in
    if k < lo.(q + 1) then Some k else None
  in
  let exec k = Atomic.incr executed.(k) in
  let drain q =
    let rec go () =
      match claim q with
      | Some k ->
          exec k;
          go ()
      | None -> ()
    in
    go ()
  in
  Atomic.spawn (fun () -> drain 0);
  Atomic.spawn (fun () ->
      drain 1;
      (* own slice spent: steal from the other queue until it is too *)
      drain 0);
  Atomic.final (fun () ->
      Atomic.check (fun () ->
          let ok = ref true in
          for k = 0 to n - 1 do
            if Atomic.get executed.(k) <> 1 then ok := false
          done;
          !ok))

(* {1 Memo per-key slot} *)

(* slot states: 0 = empty, 1 = computing, 2 = published *)
let memo_slot_model () =
  let state = Atomic.make 0 in
  let computed = Atomic.make 0 in
  let observed_wrong = Atomic.make 0 in
  let worker () =
    if Atomic.compare_and_set state 0 1 then begin
      Atomic.incr computed;
      Atomic.set state 2
    end
    else if Atomic.get state = 2 then begin
      (* loser after publication: must see exactly one computation *)
      if Atomic.get computed <> 1 then Atomic.incr observed_wrong
    end
  in
  Atomic.spawn worker;
  Atomic.spawn worker;
  Atomic.final (fun () ->
      Atomic.check (fun () ->
          Atomic.get computed = 1 && Atomic.get observed_wrong = 0))

(* {1 Serve stop flag} *)

(* The graceful-shutdown protocol (lib/exec/flag.ml + Loadgen.run_until):
   a signal handler raises a monotonic flag; every shard polls it
   between events and retires at the next event boundary. Modeled: one
   controller raising the flag, one shard interleaving poll/execute.
   The property over every interleaving: the flag is monotonic (a
   shard that observed true never sees false again), and a retired
   shard executes no further events. *)
let stop_flag_model () =
  let flag = Atomic.make false in
  let monotonic_violation = Atomic.make 0 in
  Atomic.spawn (fun () -> Atomic.set flag true) (* Flag.set: false -> true only *);
  Atomic.spawn (fun () ->
      (* Loadgen.run_until: poll between events, exit on first true *)
      let events = ref 0 in
      let retired = ref false in
      while (not !retired) && !events < 3 do
        if Atomic.get flag then retired := true
        else incr events (* execute one event *)
      done;
      (* whatever was observed mid-loop, a retired shard re-reading the
         flag must still see it raised *)
      if !retired && not (Atomic.get flag) then
        Atomic.incr monotonic_violation);
  Atomic.final (fun () ->
      Atomic.check (fun () ->
          Atomic.get flag && Atomic.get monotonic_violation = 0))

(* {1 SPSC ring hand-off} *)

(* Restates Spsc.try_push/try_pop verbatim against TracedAtomic
   cursors: capacity 2, a producer attempting three pushes of an
   ascending counter (advancing only on success, as the netloop's
   emit retry does) racing a consumer attempting three pops. The
   lanes themselves are a plain array, exactly as in the real ring:
   the model checks that the cursor protocol alone is what makes the
   plain lane accesses safe. *)
let spsc_ring_model () =
  let cap = 2 in
  let mask = cap - 1 in
  let buf = Array.make cap 0 in
  let head = Atomic.make 0 in
  let tail = Atomic.make 0 in
  let pushed = ref 0 in
  let popped = ref [] in
  let try_push v =
    let t = Atomic.get tail in
    let h = Atomic.get head in
    if t - h > mask then false
    else begin
      buf.(t land mask) <- v;
      (* publication: the lane write above happens-before this store *)
      Atomic.set tail (t + 1);
      true
    end
  in
  let try_pop () =
    let h = Atomic.get head in
    let t = Atomic.get tail in
    if t - h <= 0 then None
    else begin
      let v = buf.(h land mask) in
      Atomic.set head (h + 1);
      Some v
    end
  in
  Atomic.spawn (fun () ->
      let next = ref 1 in
      for _ = 1 to 3 do
        if try_push !next then begin
          incr pushed;
          incr next
        end
      done);
  Atomic.spawn (fun () ->
      for _ = 1 to 3 do
        match try_pop () with
        | Some v -> popped := v :: !popped
        | None -> ()
      done);
  Atomic.final (fun () ->
      Atomic.check (fun () ->
          (* the pops must be exactly 1..k for some k <= pushes: any
             loss, duplication, reorder, or unpublished-lane read
             (which would surface a 0 or a stale value) fails here *)
          let got = List.rev !popped in
          let in_order = List.for_all2 ( = ) got (List.mapi (fun i _ -> i + 1) got) in
          let t = Atomic.get tail and h = Atomic.get head in
          in_order
          && List.length got <= !pushed
          && t - h >= 0
          && t - h <= cap))

let () =
  Atomic.trace pool_steal_model;
  Atomic.trace memo_slot_model;
  Atomic.trace stop_flag_model;
  Atomic.trace spsc_ring_model;
  print_endline
    "dscheck: pool steal path, memo slot, stop flag and spsc ring verified"
