(** The socket event loop behind [riommu-serve --listen].

    Nonblocking fds behind a {!Readiness} backend (poll(2) by default,
    [Unix.select] on request): accept new connections into a slot
    table, read into per-connection buffers, decode admissible
    requests ({!Conn.can_admit} is the backpressure gate), batch them
    by shard affinity ({!Dispatch}), flush once per wakeup, and write
    queued responses back. Registrations are armed once and only
    interest {e changes} are re-programmed — no per-wakeup fd-set
    rebuild.

    With [domains = 1] (the default) shards execute on the loop
    thread, exactly the single-dispatcher design of DESIGN.md §14.
    With [domains = N > 1] (clamped to the shard count), N shard
    executor domains each own a contiguous slice of the shard array:
    flushes pack batch slots into fixed-width integer cells pushed
    over bounded {!Spsc} rings, executors run them against their
    shards and push response cells back, and this thread encodes
    those into the owning connection's write buffer — sockets and
    buffers never leave the IO domain. Executors wake a parked loop
    through a self-pipe. See DESIGN.md §15.

    The loop is a state record {!t} driven one wakeup at a time by
    {!step}; {!serve} is {!create}, {!step} until stopped, then
    {!shutdown}. Tests drive the three directly.

    Wall-clock time never enters the library: callers inject [now_s]
    (the binary passes [Unix.gettimeofday], which the determinism lint
    bans from lib/) and it is used only to pace progress ticks. *)

type addr = Unix_path of string | Tcp of string * int

val parse_addr : string -> (addr, string) result
(** ["unix:PATH"], ["tcp:HOST:PORT"], or bare ["HOST:PORT"] (numeric
    host or ["localhost"]; empty host means 127.0.0.1). *)

val addr_to_string : addr -> string

type config = {
  addr : addr;
  batch : int;  (** dispatch batch slots per shard *)
  window : int;  (** per-connection in-flight request cap *)
  sg_limit : int;  (** max scatter-gather segments per request *)
  max_conns : int;  (** accepts beyond this are refused (closed) *)
  max_tenants : int;  (** wire tenant-id space for the dispatcher *)
  domains : int;  (** executor domains; [1] = execute on the loop *)
  backend : Readiness.backend;  (** readiness backend *)
  now_s : unit -> float;  (** injected wall clock (seconds) *)
  tick_every_s : float;  (** [on_tick] cadence; [<= 0] disables *)
}

val default_config : addr:addr -> config
(** batch 64, window 128, sg_limit 16, 64 connections, 4096 tenants,
    1 domain, {!Readiness.default_backend}, ticks disabled, clock
    stuck at 0 (supply [now_s] to enable). *)

type stats = {
  backend : string;  (** configured readiness backend name *)
  domains : int;  (** effective executor domains after clamping *)
  max_conns_effective : int;
      (** [max_conns] after the backend's fd cap (FD_SETSIZE for
          select, minus slack for the listener and wake pipes) *)
  domain_ops : int array;
      (** per-executor requests executed; [[||]] when [domains = 1] *)
  mutable accepted : int;
  mutable refused : int;  (** accepted then closed over the conn cap *)
  mutable closed : int;
  mutable requests : int;  (** request frames decoded *)
  mutable responses : int;  (** responses encoded (incl. rejects) *)
  mutable protocol_errors : int;  (** connections killed by bad frames *)
  mutable batch_flushes : int;  (** non-empty shard batch executions *)
  mutable rejected : int;  (** bad_request answers *)
  mutable bytes_in : int;
  mutable bytes_out : int;
}

type t
(** One loop's state: listener, readiness registrations, connection
    slot table, dispatcher, executor domains and counters. *)

val create :
  ?on_tick:(stats -> unit) -> shards:Rio_serve.Shard.t array -> config -> t
(** Bind and listen on [config.addr], register the listener, and spawn
    the executor domains (when [domains > 1]). [on_tick] fires from
    {!step} at most every [tick_every_s] wall seconds with live
    counters. *)

val step : t -> unit
(** One wakeup: wait up to 50 ms for readiness; accept, read and
    decode (enqueueing into the dispatcher) as fds surface; flush the
    batches once; drain executor responses; write queued responses;
    close dead connections; re-arm interest; tick. Out of file
    descriptors, accepting pauses until a connection is closed. *)

val stats : t -> stats
(** The live counters, with the dispatcher- and executor-derived
    fields ([responses], [batch_flushes], [rejected], [domain_ops])
    brought up to date. *)

val shutdown : t -> stats
(** Flush outstanding batches (waiting for in-flight ring cells and
    joining executor domains first when [domains > 1]), best-effort
    drain each connection's queued responses, close everything
    (unlinking a unix-domain path), and return the final counters.
    Shard histograms and tenant stats are readable afterwards exactly
    like after a simulated run. *)

val serve :
  ?stop:Rio_exec.Flag.t ->
  ?on_tick:(stats -> unit) ->
  shards:Rio_serve.Shard.t array ->
  config ->
  stats
(** [create], then {!step} until [stop] is raised, then {!shutdown}. *)
