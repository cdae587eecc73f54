(** Shard-affinity dispatch with per-shard request batching.

    Each decoded request is written straight into a request cell
    ({!Cell}) of its shard's preallocated batch, and batches execute
    in shard order at flush points (the event loop flushes once per
    poll iteration, or mid-iteration when a batch fills). A tenant is
    pinned to a shard on first sight by hashing [(tenant, bdf)] — all
    its later requests, whatever connection they arrive on, execute on
    that shard's manager, preserving the IOTLB and allocator locality
    the shard design exists for (DESIGN.md §12, §14).

    Request cells are the only batch format and {!Executor.exec} the
    only execute path: {!flush_all} runs it inline on the batch's own
    cells ([--domains 1]); {!flush_cells} hands the same cells to the
    executor rings ([--domains N]). Either way one encoder, the one
    behind {!complete}, writes the response cell into the request's
    connection write buffer.
    Because batches interleave requests from many connections, a
    connection's responses can be reordered relative to its requests
    — [req_id] is the correlation key.

    {!enqueue}, {!complete} and the inline translate are
    allocation-free (lint manifest; dispatch-translate bench gate). *)

type t

val create :
  shards:Rio_serve.Shard.t array ->
  batch:int ->
  sg_limit:int ->
  ?max_tenants:int ->
  unit ->
  t
(** [batch] slots per shard; wire tenant ids must be below
    [max_tenants] (default 4096) or the request is rejected with
    [bad_request]. *)

val set_stats_cb : t -> (Conn.t -> int -> unit) -> unit
(** How to answer a stats request ([conn], [req_id]) — the event loop
    installs a closure over its own counters. The default answers all
    zeros. The callback must reserve/encode/commit and call
    {!Conn.completed} itself, like any execute. *)

val shard_of : t -> tenant:int -> bdf:int -> int
(** The affinity hash (exposed for tests): which shard a fresh tenant
    presenting from [bdf] would pin to. *)

val enqueue : t -> Conn.t -> Wire.req -> bool
(** Append one decoded request. [true] = handled: queued on its
    shard's batch, or answered immediately (stats; [bad_request] for
    an out-of-range or unplaceable tenant). [false] = that shard's
    batch is full — {!flush_shard} (or {!flush_all}) and retry.
    Allocation-free. *)

val flush_shard : t -> int -> unit
(** Execute and clear shard [sh]'s batch inline, one run of
    consecutive slots from the same connection at a time:
    {!Executor.exec} runs each cell of the run against the shard's
    manager, then the run's response cells are encoded into the
    connection's write buffer, in slot order, by the same encoder as
    {!complete} — behind one reservation and one commit. Dead
    connections' slots are skipped. *)

val flush_all : t -> unit

val flush_cells : t -> cell:int array -> emit:(shard:int -> unit) -> unit
(** The multi-domain flush: copy each batched request cell into [cell]
    (a caller-owned scratch of {!Cell.req_width} ints), stamp its
    {!Cell.q_slot} lane with the connection's {!Conn.token}, and call
    [emit ~shard] to push it onto the owning executor's request ring.
    [emit] must consume [cell] before returning (it is reused for the
    next slot) and must not fail — the loop spins on a momentarily
    full ring. Dead connections' slots are dropped, as in
    {!flush_shard}. *)

val complete : t -> Conn.t -> cell:int array -> pos:int -> unit
(** Encode the {e response} cell whose lanes start at [pos] of [cell]
    ({!Cell.rsp_width} lanes) into [conn]'s write buffer and retire its
    in-flight slot: how the IO domain finishes a cell that came back
    off an executor ring. Its encoder is the only one for shard
    results; {!flush_shard} runs it over whole runs of cells. Counted
    in {!executed}. Allocation-free. *)

val pending : t -> int
(** Requests batched but not yet flushed. *)

val batch : t -> int
val max_tenants : t -> int
val executed : t -> int
val flushes : t -> int
(** Non-empty batch flushes — [executed / flushes] is the realized
    batch amortization. *)

val rejected : t -> int
(** Requests answered [bad_request] without reaching a shard. *)
