(* The whole-table Markov prefetcher: the differential oracle the
   reverse-indexed Rio_prefetch.Markov is checked against in
   test_prefetch. [invalidate] filters every entry of the table. *)

let name = "markov"

let degree = 2

type entry = { mutable successors : int list (* most recent first, <= degree *) }

type t = {
  history : int;
  table : (int, entry) Hashtbl.t;
  order : int Queue.t;  (* LRU-ish eviction order of keys *)
  mutable last : int option;
}

let create ~history =
  if history <= 0 then invalid_arg "Markov.create: history";
  { history; table = Hashtbl.create history; order = Queue.create (); last = None }

let entry t page =
  match Hashtbl.find_opt t.table page with
  | Some e -> e
  | None ->
      if Hashtbl.length t.table >= t.history then begin
        (* evict the oldest inserted key still present *)
        let rec evict () =
          match Queue.take_opt t.order with
          | None -> ()
          | Some victim ->
              if Hashtbl.mem t.table victim then Hashtbl.remove t.table victim
              else evict ()
        in
        evict ()
      end;
      let e = { successors = [] } in
      Hashtbl.add t.table page e;
      Queue.add page t.order;
      e

let observe t page =
  (match t.last with
  | Some prev ->
      let e = entry t prev in
      let without = List.filter (fun s -> s <> page) e.successors in
      let trimmed =
        if List.length without >= degree then
          List.filteri (fun i _ -> i < degree - 1) without
        else without
      in
      e.successors <- page :: trimmed
  | None -> ());
  t.last <- Some page

let invalidate t page =
  Hashtbl.remove t.table page;
  Hashtbl.iter
    (fun _ e -> e.successors <- List.filter (fun s -> s <> page) e.successors)
    t.table;
  if t.last = Some page then t.last <- None

let predict t page =
  match Hashtbl.find_opt t.table page with Some e -> e.successors | None -> []
