(** Shard execution: the single function that runs a request cell
    against its shard, and the executor domain that runs it off a ring.

    {!exec} is the service's only execute path. It takes one request
    cell ({!Cell} request lanes) and leaves the matching response cell
    in its place, for all four ops; {!Dispatch.complete} then encodes
    that cell into the owning connection. With
    [--domains 1] {!Dispatch.flush_all} calls it inline on the batch's
    own cells; with [--domains N] an executor domain ({!t}) calls it on
    the cells it pops off its request ring and pushes each, now a
    response cell, onto its response ring.

    An executor owns a contiguous slice of the shard array — the IO
    domain routes a request cell to the executor owning its shard, so
    every shard (and its domain manager, IOVA allocator, IOTLB) is
    only ever touched by one executor domain. Request cells carry the
    global shard index ({!Cell.q_shard}); the slice bounds are a
    routing contract of the loop, not enforced here.

    {!step} is the synchronous core (drain what is currently queued,
    execute, push response cells) and is what unit tests drive on a
    single thread; {!run} wraps it in the domain loop — spin briefly
    ([Domain.cpu_relax]), then nap, and exit once {!request_stop} has
    been called and the request ring is empty. After pushing
    responses, {!run} writes one byte to [wake_fd] so a poll-parked
    IO domain wakes to drain them.

    Translate allocates nothing (lint-gated): cells are int lanes,
    scratch is preallocated, and shard counters are plain ints. *)

(** {1 The execute path} *)

type core
(** The shard array plus the map_sg scratch {!exec} uses: one per
    executing thread. *)

val core : shards:Rio_serve.Shard.t array -> sg_limit:int -> core
(** [shards] is the {e global} shard array ({!Cell.q_shard} indexes
    it). *)

val exec : core -> int array -> pos:int -> unit
(** Run the request cell whose lanes start at [pos] against its shard
    and rewrite it in place into its response cell (the {!Cell}
    response lanes overlay the request lanes). *)

(** {1 Executor domains} *)

type t

val create :
  shards:Rio_serve.Shard.t array ->
  sg_limit:int ->
  ring_cap:int ->
  wake_fd:Unix.file_descr ->
  t
(** [ring_cap] sizes both rings (rounded up to a power of two);
    [wake_fd] is the write end of the loop's wake pipe (nonblocking —
    a full pipe already means a wakeup is pending). *)

val request_ring : t -> Spsc.t
(** Producer side belongs to the IO domain. *)

val response_ring : t -> Spsc.t
(** Consumer side belongs to the IO domain. *)

val step : t -> int
(** Execute every request cell currently queued, pushing one response
    cell per request (spinning if the response ring is momentarily
    full — the IO domain drains it every wakeup). Returns the number
    executed. Single-threaded core; callable without a domain. *)

val run : t -> unit
(** The domain body: {!step} until {!request_stop} and an empty
    request ring. *)

val request_stop : t -> unit
(** Ask {!run} to exit after draining. Safe from any domain. *)

val executed : t -> int
(** Requests executed over the executor's lifetime. Exact after the
    domain is joined; a stale-but-safe read while it runs. *)
