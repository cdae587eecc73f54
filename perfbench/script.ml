(* The seeded request script and the per-tenant model that verifies
   every answer.

   Each connection of the generator stands for one device ring driven
   by one tenant. A batch is the ring's outstanding descriptors; the
   next batch is built only after every answer of the last one has
   been applied to the model, so the model is exact when a batch is
   built and a request's expected answer is known when it is sent.

   Within a batch the order is fixed: the translate-after-unmap probe
   (if any) first, then maps, then translates, then unmaps. The server
   executes one tenant's requests in arrival order, so a probe runs
   before any map of its batch could recycle the IOVA it targets, and
   the previous batch unmapped that IOVA after its own maps ran. *)

type workload = Translate_deep | Ring_churn | Rr_ping

let workload_of_string = function
  | "translate-deep" -> Some Translate_deep
  | "ring-churn" -> Some Ring_churn
  | "rr-ping" -> Some Rr_ping
  | _ -> None

(* Ring depth: descriptors outstanding per connection. *)
let depth = function Translate_deep | Ring_churn -> 64 | Rr_ping -> 1

(* The service configuration every socket workload runs against; the
   in-process replays build the same shards. *)
let conns = 2
let shards = 2
let tenants_per_shard = 4
let iotlb_capacity = 256
let window = 128
let batch = 64
let sg_limit = 16

let server_flags =
  [ "--domains"; "1"; "--shards"; string_of_int shards; "--tenants";
    string_of_int tenants_per_shard; "--capacity"; string_of_int iotlb_capacity;
    "--batch"; string_of_int batch; "--window"; string_of_int window;
    "--sg-max"; string_of_int sg_limit; "--interval"; "0" ]

(* Pages each tenant keeps mapped. translate-deep and rr-ping: both
   tenants' sets together (128) fit one shard's 256-entry IOTLB even
   if the affinity hash puts them on the same shard. ring-churn: the
   live ring is 3x the IOTLB on its own. *)
let live_pages = function Translate_deep | Rr_ping -> 64 | Ring_churn -> 768

(* ring-churn batch shape: map:translate:unmap = 16:32:16, one of the
   32 translates being the probe (once a previous batch has unmapped
   something to probe). *)
let churn_maps = 16
let churn_unmaps = 16

let k_translate = 0
let k_probe = 1
let k_map = 2
let k_unmap = 3

let page = 4096

type ring = {
  workload : workload;
  tenant : int;
  rng : Random.State.t;
  (* live mappings, oldest first, in a circular buffer *)
  live_iova : int array;
  live_phys : int array;
  mutable head : int;
  mutable len : int;
  table : (int, int) Hashtbl.t;  (* live iova -> phys *)
  freed : int array;  (* IOVAs the last applied batch unmapped *)
  mutable nfreed : int;
  mutable phys_next : int;
  (* the batch in flight *)
  b_kind : int array;
  b_iova : int array;  (* translate/probe/unmap target *)
  b_phys : int array;  (* map: phys sent; translate: phys expected *)
  b_write : bool array;
  b_status : int array;  (* Wire status code of the answer *)
  b_value : int array;  (* iova (map) / phys (translate) answered *)
  mutable n : int;
  (* outcome counters over the ring's life *)
  mutable attempted : int;
  mutable ok : int;
  mutable failed : int;
  mutable safety : int;  (* probes that translated: never allowed *)
  mutable probes : int;
}

let create workload ~seed ~idx =
  let cap = live_pages workload + churn_maps + 1 in
  let width = max 64 (depth workload) in
  {
    workload;
    tenant = idx;
    rng = Random.State.make [| seed; idx; 0x5eed |];
    live_iova = Array.make cap 0;
    live_phys = Array.make cap 0;
    head = 0;
    len = 0;
    table = Hashtbl.create (2 * cap);
    freed = Array.make width 0;
    nfreed = 0;
    phys_next = (idx + 1) lsl 32;
    b_kind = Array.make width 0;
    b_iova = Array.make width 0;
    b_phys = Array.make width 0;
    b_write = Array.make width false;
    b_status = Array.make width 0;
    b_value = Array.make width 0;
    n = 0;
    attempted = 0;
    ok = 0;
    failed = 0;
    safety = 0;
    probes = 0;
  }

let live_at r j =
  let k = (r.head + j) mod Array.length r.live_iova in
  (r.live_iova.(k), r.live_phys.(k))

let push_live r iova phys =
  let k = (r.head + r.len) mod Array.length r.live_iova in
  r.live_iova.(k) <- iova;
  r.live_phys.(k) <- phys;
  r.len <- r.len + 1;
  Hashtbl.replace r.table iova phys

let pop_live r =
  let iova = r.live_iova.(r.head) in
  r.head <- (r.head + 1) mod Array.length r.live_iova;
  r.len <- r.len - 1;
  Hashtbl.remove r.table iova;
  iova

let set r i kind ~iova ~phys ~write =
  r.b_kind.(i) <- kind;
  r.b_iova.(i) <- iova;
  r.b_phys.(i) <- phys;
  r.b_write.(i) <- write;
  r.b_status.(i) <- -1;
  r.b_value.(i) <- 0

let add_map r i =
  let phys = r.phys_next in
  r.phys_next <- r.phys_next + page;
  set r i k_map ~iova:0 ~phys ~write:false

let add_translate r i =
  let iova, phys = live_at r (Random.State.int r.rng r.len) in
  let off = Random.State.int r.rng page in
  set r i k_translate ~iova:(iova + off) ~phys:(phys + off)
    ~write:(Random.State.bool r.rng)

(* Setup: map pages until the tenant's live set is full. Returns
   [false] once there is nothing left to map. *)
let fill_setup r =
  let want = live_pages r.workload - r.len in
  let n = min want (Array.length r.b_kind) in
  for i = 0 to n - 1 do
    add_map r i
  done;
  r.n <- n;
  (* setup batches count as attempted too: every answer is verified *)
  r.attempted <- r.attempted + n;
  n > 0

let fill r =
  (match r.workload with
  | Translate_deep | Rr_ping ->
      let n = depth r.workload in
      for i = 0 to n - 1 do
        add_translate r i
      done;
      r.n <- n
  | Ring_churn ->
      let i = ref 0 in
      if r.nfreed > 0 then begin
        let iova = r.freed.(Random.State.int r.rng r.nfreed) in
        (* by construction nothing has remapped it yet *)
        assert (not (Hashtbl.mem r.table iova));
        r.probes <- r.probes + 1;
        set r 0 k_probe ~iova:(iova + Random.State.int r.rng page) ~phys:0
          ~write:false;
        incr i
      end;
      for _ = 1 to churn_maps do
        add_map r !i;
        incr i
      done;
      let translates = depth r.workload - churn_maps - churn_unmaps - !i in
      for _ = 1 to translates do
        add_translate r !i;
        incr i
      done;
      for j = 0 to churn_unmaps - 1 do
        let iova, _ = live_at r j in
        set r !i k_unmap ~iova ~phys:0 ~write:false;
        incr i
      done;
      r.n <- !i);
  r.attempted <- r.attempted + r.n

let st_ok = Rio_serve_net.Wire.st_ok
let st_fault = Rio_serve_net.Wire.st_fault

(* Apply the answered batch to the model, in request order. A slot
   with status [-1] was never answered. *)
let apply r =
  r.nfreed <- 0;
  for i = 0 to r.n - 1 do
    let st = r.b_status.(i) and v = r.b_value.(i) in
    let kind = r.b_kind.(i) in
    let good =
      if kind = k_translate then st = st_ok && v = r.b_phys.(i)
      else if kind = k_probe then begin
        if st = st_ok then r.safety <- r.safety + 1;
        st = st_fault
      end
      else if kind = k_map then begin
        let fresh = st = st_ok && v land (page - 1) = 0 && not (Hashtbl.mem r.table v) in
        if fresh then push_live r v r.b_phys.(i);
        fresh
      end
      else begin
        (* unmaps always target the ring's oldest entries, in order *)
        let iova = pop_live r in
        assert (iova = r.b_iova.(i));
        r.freed.(r.nfreed) <- iova;
        r.nfreed <- r.nfreed + 1;
        st = st_ok
      end
    in
    if good then r.ok <- r.ok + 1 else r.failed <- r.failed + 1
  done
