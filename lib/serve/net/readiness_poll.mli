(** The poll(2) side of the {!Readiness} split, over the [rio_poll]
    C stubs.

    Registrations return stable integer handles (an internal dense
    pollfd array is swap-compacted on {!unregister}; handles indirect
    through it), and each carries a caller [token] handed back by
    {!iter_ready} — the loop's connection-slot index, so readiness
    results never need an fd-keyed lookup. {!wait} and {!iter_ready}
    are allocation-free. *)

type t

val create : unit -> t

val register : t -> Unix.file_descr -> token:int -> int
(** Watch a new fd (no interest yet; arm with {!interest}). Returns
    the registration handle. *)

val unregister : t -> handle:int -> unit
(** Stop watching. The handle is recycled; the caller must drop it. *)

val interest : t -> handle:int -> read:bool -> write:bool -> unit

val registered : t -> int
(** Live registrations. *)

val wait : t -> timeout_ms:int -> int
(** One poll(2) call over every registration; returns the ready
    count. [EINTR] reads as [0]. Allocation-free. *)

val iter_ready : t -> (int -> int -> unit) -> unit
(** [iter_ready t f] calls [f token bits] for each registration with
    nonzero ready bits from the last {!wait} — bit 1 readable, bit 2
    writable, bit 4 error/hangup. Allocation-free apart from the
    caller's [f]. *)
