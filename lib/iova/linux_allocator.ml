module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model

(* Faithful model of the Linux 3.4 IOVA allocator used by the paper's
   testbed (drivers/iommu/iova.c):

   - allocated ranges live in a red-black tree ordered by pfn;
   - allocation walks DOWNWARD from a start point looking for the first
     gap that fits, placing the new range as high as possible;
   - the start point is [cached32_node] (the most recently allocated
     range) when valid, else [rb_last] (the topmost range);
   - [__cached_rbnode_insert_update]: every allocation caches the new node;
   - [__cached_rbnode_delete_update]: freeing a range at or above the
     cached one moves the cache to the freed range's successor - or kills
     it when the freed range was the topmost.

   Ring-buffer drivers free IOVAs in allocation (FIFO) order, i.e. they
   repeatedly free the topmost range, killing the cache. The allocation
   that follows restarts from the top; if it is for a *larger* size than
   the one-range gap just opened (NIC drivers allocate both one-page
   header buffers and multi-page data buffers), it scans across the whole
   packed live population before it finds room - the linear pathology of
   Table 1. *)

type t = {
  tree : Rbtree.t;
  limit_pfn : int;
  mutable cached : Rbtree.node;  (* the tree's nil sentinel when unset *)
  clock : Cycles.t;
  cost : Cost_model.t;
  mutable last_scan : int;
}

let create ~limit_pfn ~clock ~cost =
  if limit_pfn <= 0 then invalid_arg "Linux_allocator.create: limit_pfn";
  let tree = Rbtree.create () in
  (* an empty tree's [max_node] is its sentinel: no cached node yet *)
  { tree; limit_pfn; cached = Rbtree.max_node tree; clock; cost; last_scan = 0 }

let charge_visits t v0 =
  let dv = Rbtree.visits t.tree - v0 in
  Cycles.charge t.clock (dv * t.cost.Cost_model.tree_ref)

let place t ~size ~v0 ~hi =
  let lo = hi - size + 1 in
  if lo < 0 then -1
  else begin
    let node = Rbtree.insert t.tree ~lo ~hi in
    (* __cached_rbnode_insert_update *)
    t.cached <- node;
    charge_visits t v0;
    lo
  end

(* __alloc_and_insert_iova_range's downward scan from [n] (the sentinel
   once it runs off the lowest range). *)
let rec scan t ~size ~v0 n limit =
  if n.Rbtree.is_nil then place t ~size ~v0 ~hi:limit
  else begin
    t.last_scan <- t.last_scan + 1;
    if limit < n.Rbtree.lo then
      (* node entirely above the current limit: move left *)
      scan t ~size ~v0 (Rbtree.prev t.tree n) limit
    else if limit <= n.Rbtree.hi then
      (* limit falls inside the node: continue below it *)
      scan t ~size ~v0 (Rbtree.prev t.tree n) (n.Rbtree.lo - 1)
    else if n.Rbtree.hi + size <= limit then
      (* gap between this node and the limit fits the request *)
      place t ~size ~v0 ~hi:limit
    else scan t ~size ~v0 (Rbtree.prev t.tree n) (n.Rbtree.lo - 1)
  end

(* The scan boxes nothing (the sentinel stands in for NULL); only the
   inserted rbtree node allocates, which is why the zero-alloc map path
   reaches this allocator only on magazine misses. *)
let alloc_pfn t ~size =
  if size <= 0 then invalid_arg "Linux_allocator.alloc: size";
  let v0 = Rbtree.visits t.tree in
  Cycles.charge t.clock t.cost.Cost_model.call_overhead;
  t.last_scan <- 0;
  (* __get_cached_rbnode *)
  let c = t.cached in
  let pfn =
    if c.Rbtree.is_nil then scan t ~size ~v0 (Rbtree.max_node t.tree) t.limit_pfn
    else scan t ~size ~v0 (Rbtree.prev t.tree c) (c.Rbtree.lo - 1)
  in
  if pfn < 0 then charge_visits t v0;
  pfn

let alloc t ~size =
  let pfn = alloc_pfn t ~size in
  if pfn < 0 then Error `Exhausted else Ok pfn

let find t ~pfn =
  let v0 = Rbtree.visits t.tree in
  Cycles.charge t.clock t.cost.Cost_model.call_overhead;
  let node = Rbtree.find_containing t.tree pfn in
  charge_visits t v0;
  node

(* Allocation-free [find] for the zero-alloc unmap path: identical
   charges whether the pfn resolves or not. *)
let find_exn t ~pfn =
  let v0 = Rbtree.visits t.tree in
  Cycles.charge t.clock t.cost.Cost_model.call_overhead;
  match Rbtree.find_containing_exn t.tree pfn with
  | node ->
      charge_visits t v0;
      node
  | exception Not_found ->
      charge_visits t v0;
      raise Not_found

(* __free_iova = __cached_rbnode_delete_update + rb_erase *)
let free t node =
  let v0 = Rbtree.visits t.tree in
  Cycles.charge t.clock t.cost.Cost_model.call_overhead;
  let c = t.cached in
  if (not c.Rbtree.is_nil) && node.Rbtree.lo >= c.Rbtree.lo then
    t.cached <- Rbtree.next t.tree node;
  Rbtree.delete t.tree node;
  charge_visits t v0

let live t = Rbtree.size t.tree
let last_scan_length t = t.last_scan
let limit_pfn t = t.limit_pfn
