module Int_table = Rio_sim.Int_table

let name = "recency"

type node = {
  page : int;
  mutable prev : node option;  (* toward MRU *)
  mutable next : node option;  (* toward LRU *)
}

type t = {
  history : int;
  table : node Int_table.t;
  mutable mru : node option;
  mutable lru : node option;
}

let create ~history =
  if history <= 0 then invalid_arg "Recency.create: history";
  { history; table = Int_table.create history; mru = None; lru = None }

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.mru <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.lru <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.mru;
  n.prev <- None;
  (match t.mru with Some m -> m.prev <- Some n | None -> t.lru <- Some n);
  t.mru <- Some n

(* Neighbours in recency order at the time of the access - two on each
   side, sampled BEFORE the page moves to the stack top. *)
let predict t page =
  match Int_table.find_opt t.table page with
  | None -> []
  | Some n ->
      let prev1 = n.prev in
      let prev2 = Option.bind prev1 (fun p -> p.prev) in
      let next1 = n.next in
      let next2 = Option.bind next1 (fun s -> s.next) in
      List.filter_map (Option.map (fun (x : node) -> x.page)) [ prev1; prev2; next1; next2 ]

let observe t page =
  (match Int_table.find_opt t.table page with
  | Some n ->
      unlink t n;
      push_front t n
  | None ->
      if Int_table.length t.table >= t.history then begin
        match t.lru with
        | Some victim ->
            unlink t victim;
            Int_table.remove t.table victim.page
        | None -> ()
      end;
      let n = { page; prev = None; next = None } in
      Int_table.replace t.table page n;
      push_front t n);
  ()

let invalidate t page =
  match Int_table.find_opt t.table page with
  | Some n ->
      unlink t n;
      Int_table.remove t.table page
  | None -> ()
