(** Lane layout of the fixed-width integer cells that carry every
    in-flight request of the socket service.

    A {e request cell} is one decoded request plus its routing
    (connection slot, shard index). It is the dispatcher's only batch
    format: {!Dispatch.enqueue} writes requests straight into the
    cells of a shard's batch, and the same cells are executed in place
    ([--domains 1]) or copied onto an executor's {!Spsc} ring
    ([--domains N]). A {e response cell} is what {!Executor.exec}
    leaves: everything {!Dispatch.complete} needs to encode the wire
    response into the owning connection's write buffer. Both are plain
    [int] lanes, so the cross-domain hand-off moves no OCaml blocks —
    scatter-gather segments ride in [sg_limit]-sized lane groups.

    The response layout overlays the request layout: {!r_slot},
    {!r_op} and {!r_req_id} are {!q_slot}, {!q_op} and {!q_req_id},
    and the remaining response lanes reuse request lanes that execution
    has already consumed. {!Executor.exec} therefore turns a request
    cell into its response cell in place, and the first
    {!rsp_width} lanes of an executed request cell are a response
    cell. *)

val req_width : sg_limit:int -> int
val rsp_width : sg_limit:int -> int

(** {1 Request lanes} *)

val q_slot : int
(** Connection slot (the loop's token for the conn). Stamped when a
    cell is handed to an executor ring; the inline flush keeps the
    connection itself. *)

val q_shard : int
(** Global shard index; {!Executor.exec} indexes its shard array with
    this. *)

val q_op : int
val q_tenant : int
(** Domain slot on the owning shard (already resolved by dispatch). *)

val q_req_id : int
val q_a : int
(** phys (map) / iova (unmap, translate). *)

val q_b : int
(** bytes (map) / write flag (translate). *)

val q_nseg : int
val q_segs : int
(** First of [2 * sg_limit] segment lanes: phys in
    [q_segs .. q_segs + sg_limit), bytes in the next [sg_limit]. *)

(** {1 Response lanes} *)

val r_slot : int
val r_op : int
val r_status : int
(** A [Wire.st_*] code; payload lanes are meaningful only under
    [st_ok]. *)

val r_req_id : int
val r_value : int
(** phys (translate ok) / iova (map ok). *)

val r_nseg : int
val r_iovas : int
(** First of [sg_limit] iova lanes (map_sg ok). *)
