(** Readiness backends for the socket loop.

    PR 8's loop rebuilt [Unix.select] fd lists on every wakeup and
    inherited the [FD_SETSIZE] (1024) cap. This module splits that
    concern out behind a small registration API with two backends:

    - {b Poll}: poll(2) via the [rio_poll] C stubs (see
      {!Readiness_poll}). Registrations are programmed once into
      a C-side pollfd array, so each wakeup is one allocation-free
      [poll] call — no per-wakeup set rebuild, no fd cap.
    - {b Select}: portable [Unix.select], list-per-wait, capped at
      {!fd_setsize} descriptors. Always available; byte-identical in
      behavior to the PR 8 loop.

    Registrations return stable int handles and carry a caller
    [token] (the loop's connection-slot index) handed back by
    {!iter_ready}, so readiness never needs an fd-keyed lookup. *)

type backend = Select | Poll

val default_backend : backend
(** [Poll]. *)

val backend_of_string : string -> (backend, string) result
(** Accepts ["poll"] and ["select"]; [Error] names the bad token. *)

val backend_name : backend -> string

val fd_setsize : int
(** The portable [FD_SETSIZE] floor (1024) bounding the Select
    backend. *)

val max_fds : backend -> int
(** Descriptor cap: {!fd_setsize} for [Select], effectively unbounded
    for [Poll]. *)

(** Ready-bit mask returned by {!iter_ready}. *)

val ev_read : int
val ev_write : int
val ev_err : int

type t

val create : backend -> t

val backend : t -> backend

val register : t -> Unix.file_descr -> token:int -> int
(** Watch [fd]; no interest armed yet. Returns a stable handle. *)

val unregister : t -> handle:int -> unit
(** Must be called before closing the fd. Recycles the handle. *)

val interest : t -> handle:int -> read:bool -> write:bool -> unit

val registered : t -> int

val wait : t -> timeout_ms:int -> int
(** Block up to [timeout_ms] (-1 = forever) for readiness; returns
    the ready count. [EINTR] reads as [0]. Allocation-free on the
    Poll backend ([wait_poll] is lint-gated); Select builds its fd
    lists here. *)

val iter_ready : t -> (int -> int -> unit) -> unit
(** [iter_ready t f] calls [f token bits] for each ready
    registration from the last {!wait}; [bits] is an {!ev_read} /
    {!ev_write} / {!ev_err} mask. *)
