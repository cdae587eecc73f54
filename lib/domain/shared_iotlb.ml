module Iotlb = Rio_iotlb.Iotlb
module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model
module Int_table = Rio_sim.Int_table

type policy =
  | Shared
  | Partitioned
  | Quota of { entries : int }

let policy_name = function
  | Shared -> "shared"
  | Partitioned -> "partitioned"
  | Quota { entries } -> Printf.sprintf "quota:%d" entries

let policy_of_name s =
  match s with
  | "shared" -> Some Shared
  | "partitioned" -> Some Partitioned
  | _ ->
      if String.length s > 6 && String.sub s 0 6 = "quota:" then
        match int_of_string_opt (String.sub s 6 (String.length s - 6)) with
        | Some n when n > 0 -> Some (Quota { entries = n })
        | _ -> None
      else None

type stats = {
  hits : int;
  misses : int;
  evictions_self : int;
  evictions_by_other : int;
  invalidations : int;
  domain_flushes : int;
}

type counters = {
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_ev_self : int;
  mutable c_ev_other : int;
  mutable c_invalidations : int;
  mutable c_flushes : int;
}

let fresh_counters () =
  {
    c_hits = 0;
    c_misses = 0;
    c_ev_self = 0;
    c_ev_other = 0;
    c_invalidations = 0;
    c_flushes = 0;
  }

type dom = {
  id : int;
  counters : counters;
  (* private partition under Partitioned/Quota; unused under Shared *)
  mutable partition : int Iotlb.t option;
}

type t = {
  policy : policy;
  total_capacity : int;
  clock : Cycles.t;
  cost : Cost_model.t;
  (* registration order matters for partition sizing and reporting *)
  mutable doms : dom list;  (* reversed registration order *)
  by_id : dom Int_table.t;
  owner_of_bdf : dom Int_table.t;
  mutable frozen : bool;
  (* Shared policy: the one LRU everyone contends on. The inserter is
     recorded around each fill so the eviction hook can attribute the
     victim. *)
  mutable shared : int Iotlb.t option;
  mutable inserting : dom option;
}

let create ~policy ~capacity ~clock ~cost =
  if capacity <= 0 then invalid_arg "Shared_iotlb.create: capacity";
  {
    policy;
    total_capacity = capacity;
    clock;
    cost;
    doms = [];
    by_id = Int_table.create 16;
    owner_of_bdf = Int_table.create 16;
    frozen = false;
    shared = None;
    inserting = None;
  }

let make_partition t d ~capacity =
  let on_evict ~bdf:_ ~vpn:_ =
    d.counters.c_ev_self <- d.counters.c_ev_self + 1
  in
  Iotlb.create ~on_evict ~capacity ~clock:t.clock ~cost:t.cost ()

let register t ~domain ~bdf =
  (* Online attach: under [Shared] (one LRU, no per-domain geometry)
     and [Quota] (fixed per-domain slice) a registration after traffic
     has started is safe, which is what lets a serve tenant attach
     while its neighbors keep translating. Only [Partitioned] must
     refuse: its slice size is total/N over the final domain count. *)
  (if t.frozen then
     match t.policy with
     | Shared | Quota _ -> ()
     | Partitioned ->
         invalid_arg
           "Shared_iotlb.register: traffic already started (partitioned \
            slice geometry is fixed at first traffic)");
  (match Int_table.find_opt t.owner_of_bdf bdf with
  | Some d when d.id <> domain ->
      invalid_arg "Shared_iotlb.register: bdf owned by another domain"
  | _ -> ());
  let d =
    match Int_table.find_opt t.by_id domain with
    | Some d -> d
    | None ->
        let d = { id = domain; counters = fresh_counters (); partition = None } in
        Int_table.replace t.by_id domain d;
        t.doms <- d :: t.doms;
        d
  in
  (* a late Quota registrant builds its fixed slice immediately *)
  (match (t.frozen, t.policy) with
  | true, Quota { entries } when d.partition = None ->
      d.partition <- Some (make_partition t d ~capacity:entries)
  | _ -> ());
  Int_table.replace t.owner_of_bdf bdf d

let unregister t ~domain ~bdf =
  match Int_table.find_opt t.owner_of_bdf bdf with
  | Some d when d.id = domain -> Int_table.remove t.owner_of_bdf bdf
  | _ -> ()

(* find, not find_opt: [dom_exn] sits under the batched-invalidation
   flush on the zero-alloc unmap_sg path, so no Some box. *)
let dom_exn t domain =
  match Int_table.find t.by_id domain with
  | d -> d
  | exception Not_found -> invalid_arg "Shared_iotlb: unregistered domain"

let owner t bdf = Int_table.find_opt t.owner_of_bdf bdf

(* Freeze on first traffic: build the shared instance or size the
   per-domain partitions from the final registration count. *)
let freeze t =
  if not t.frozen then begin
    t.frozen <- true;
    match t.policy with
    | Shared ->
        let on_evict ~bdf ~vpn =
          ignore vpn;
          match (owner t bdf, t.inserting) with
          | Some victim, Some filler ->
              if victim.id = filler.id then
                victim.counters.c_ev_self <- victim.counters.c_ev_self + 1
              else
                victim.counters.c_ev_other <- victim.counters.c_ev_other + 1
          | Some victim, None ->
              victim.counters.c_ev_self <- victim.counters.c_ev_self + 1
          | None, _ -> ()
        in
        t.shared <-
          Some
            (Iotlb.create ~on_evict ~capacity:t.total_capacity ~clock:t.clock
               ~cost:t.cost ())
    | Partitioned | Quota _ ->
        let n = max 1 (List.length t.doms) in
        let slice =
          match t.policy with
          | Quota { entries } -> entries
          | _ -> max 1 (t.total_capacity / n)
        in
        List.iter
          (fun d -> d.partition <- Some (make_partition t d ~capacity:slice))
          t.doms
  end

let partition_exn d =
  match d.partition with
  | Some p -> p
  | None -> invalid_arg "Shared_iotlb: partition missing"

let lookup t ~domain ~bdf ~vpn =
  freeze t;
  let d = dom_exn t domain in
  let result =
    match t.policy with
    | Shared -> Iotlb.lookup (Option.get t.shared) ~bdf ~vpn
    | Partitioned | Quota _ -> Iotlb.lookup (partition_exn d) ~bdf ~vpn
  in
  (match result with
  | Some _ -> d.counters.c_hits <- d.counters.c_hits + 1
  | None -> d.counters.c_misses <- d.counters.c_misses + 1);
  result

(* Allocation-free twin of [lookup]: Int_table.find instead of find_opt
   (no option box), Iotlb.find_exn instead of lookup (no Some box on a
   hit). Misses are counted before the Not_found escapes, so the
   attribution counters agree with [lookup] exactly. *)
let find_exn t ~domain ~bdf ~vpn =
  freeze t;
  let d = Int_table.find t.by_id domain in
  let tlb =
    match t.policy with
    | Shared -> (
        match t.shared with Some s -> s | None -> raise Not_found)
    | Partitioned | Quota _ -> (
        match d.partition with Some p -> p | None -> raise Not_found)
  in
  match Iotlb.find_exn tlb ~bdf ~vpn with
  | pte ->
      d.counters.c_hits <- d.counters.c_hits + 1;
      pte
  | exception Not_found ->
      d.counters.c_misses <- d.counters.c_misses + 1;
      raise Not_found

let insert t ~domain ~bdf ~vpn pte =
  freeze t;
  let d = dom_exn t domain in
  match t.policy with
  | Shared ->
      t.inserting <- Some d;
      Iotlb.insert (Option.get t.shared) ~bdf ~vpn pte;
      t.inserting <- None
  | Partitioned | Quota _ -> Iotlb.insert (partition_exn d) ~bdf ~vpn pte

let invalidate t ~domain ~bdf ~vpn =
  freeze t;
  let d = dom_exn t domain in
  d.counters.c_invalidations <- d.counters.c_invalidations + 1;
  match t.policy with
  | Shared -> Iotlb.invalidate (Option.get t.shared) ~bdf ~vpn
  | Partitioned | Quota _ -> Iotlb.invalidate (partition_exn d) ~bdf ~vpn

let flush_domain t ~domain =
  freeze t;
  let d = dom_exn t domain in
  d.counters.c_flushes <- d.counters.c_flushes + 1;
  match t.policy with
  | Shared ->
      (* Domain-selective invalidation: one command, drops only this
         domain's entries. *)
      Cycles.charge t.clock t.cost.Cost_model.iotlb_global_flush;
      let shared = Option.get t.shared in
      let mine = ref [] in
      Iotlb.iter shared (fun ~bdf ~vpn _ ->
          match owner t bdf with
          | Some o when o.id = d.id -> mine := (bdf, vpn) :: !mine
          | _ -> ());
      List.iter (fun (bdf, vpn) -> ignore (Iotlb.drop shared ~bdf ~vpn)) !mine
  | Partitioned | Quota _ -> Iotlb.flush_all (partition_exn d)

let flush_all t =
  freeze t;
  match t.policy with
  | Shared -> Iotlb.flush_all (Option.get t.shared)
  | Partitioned | Quota _ ->
      List.iter (fun d -> Iotlb.flush_all (partition_exn d)) t.doms

let stats t ~domain =
  let c = (dom_exn t domain).counters in
  {
    hits = c.c_hits;
    misses = c.c_misses;
    evictions_self = c.c_ev_self;
    evictions_by_other = c.c_ev_other;
    invalidations = c.c_invalidations;
    domain_flushes = c.c_flushes;
  }

let reset_stats t =
  List.iter
    (fun d ->
      let c = d.counters in
      c.c_hits <- 0;
      c.c_misses <- 0;
      c.c_ev_self <- 0;
      c.c_ev_other <- 0;
      c.c_invalidations <- 0;
      c.c_flushes <- 0;
      match d.partition with Some p -> Iotlb.reset_stats p | None -> ())
    t.doms;
  match t.shared with Some s -> Iotlb.reset_stats s | None -> ()

let occupancy t ~domain =
  let d = dom_exn t domain in
  if not t.frozen then 0
  else
    match t.policy with
    | Shared ->
        let n = ref 0 in
        Iotlb.iter (Option.get t.shared) (fun ~bdf ~vpn:_ _ ->
            match owner t bdf with
            | Some o when o.id = d.id -> incr n
            | _ -> ());
        !n
    | Partitioned | Quota _ -> Iotlb.occupancy (partition_exn d)

let capacity t = t.total_capacity
let policy t = t.policy
let domains t = List.rev_map (fun d -> d.id) t.doms
