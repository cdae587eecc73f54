(* Lane offsets for cells; see the mli for the layout story. The
   response lanes overlay the request lanes: slot, op and req_id sit
   at the same offsets in both, so a cell becomes its own response in
   place. *)

let q_slot = 0
let q_op = 1
let q_req_id = 2
let q_shard = 3
let q_tenant = 4
let q_a = 5
let q_b = 6
let q_nseg = 7
let q_segs = 8
let req_width ~sg_limit = q_segs + (2 * sg_limit)
let r_slot = q_slot
let r_op = q_op
let r_req_id = q_req_id
let r_status = 3
let r_value = 4
let r_nseg = 5
let r_iovas = 6
let rsp_width ~sg_limit = r_iovas + sg_limit
