module Int_table = Rio_sim.Int_table

let name = "markov"

let degree = 2

type entry = { mutable successors : int list (* most recent first, <= degree *) }

(* [preds] is the reverse of [table]: [q] is in [preds s] exactly when
   [table q] exists and lists [s] among its successors. [invalidate]
   walks it instead of the whole table, and every change to a successor
   list or removal from [table] keeps it exact, so its size is bounded by
   [degree * history] whether or not anything is ever invalidated. *)
type t = {
  history : int;
  table : entry Int_table.t;
  preds : int list Int_table.t;
  order : int Queue.t;  (* LRU-ish eviction order of keys *)
  mutable last : int option;
}

let create ~history =
  if history <= 0 then invalid_arg "Markov.create: history";
  {
    history;
    table = Int_table.create history;
    preds = Int_table.create history;
    order = Queue.create ();
    last = None;
  }

let link t ~pred s =
  let ps = Option.value ~default:[] (Int_table.find_opt t.preds s) in
  Int_table.replace t.preds s (pred :: ps)

let unlink t ~pred s =
  match List.filter (fun q -> q <> pred) (Int_table.find t.preds s) with
  | [] -> Int_table.remove t.preds s
  | ps -> Int_table.replace t.preds s ps

(* Drop [page]'s own entry, and its links from the reverse index. *)
let remove_entry t page e =
  Int_table.remove t.table page;
  List.iter (unlink t ~pred:page) e.successors

let entry t page =
  match Int_table.find_opt t.table page with
  | Some e -> e
  | None ->
      if Int_table.length t.table >= t.history then begin
        (* evict the oldest inserted key still present *)
        let rec evict () =
          match Queue.take_opt t.order with
          | None -> ()
          | Some victim -> (
              match Int_table.find_opt t.table victim with
              | Some v -> remove_entry t victim v
              | None -> evict ())
        in
        evict ()
      end;
      let e = { successors = [] } in
      Int_table.replace t.table page e;
      Queue.add page t.order;
      e

let observe t page =
  (match t.last with
  | Some prev ->
      let e = entry t prev in
      let seen = List.mem page e.successors in
      let without = if seen then List.filter (fun s -> s <> page) e.successors else e.successors in
      let trimmed =
        if List.length without >= degree then begin
          List.iteri (fun i s -> if i >= degree - 1 then unlink t ~pred:prev s) without;
          List.filteri (fun i _ -> i < degree - 1) without
        end
        else without
      in
      if not seen then link t ~pred:prev page;
      e.successors <- page :: trimmed
  | None -> ());
  t.last <- Some page

let invalidate t page =
  (match Int_table.find_opt t.table page with
  | Some e -> remove_entry t page e
  | None -> ());
  (match Int_table.find_opt t.preds page with
  | Some ps ->
      Int_table.remove t.preds page;
      List.iter
        (fun q ->
          let e = Int_table.find t.table q in
          e.successors <- List.filter (fun s -> s <> page) e.successors)
        ps
  | None -> ());
  if t.last = Some page then t.last <- None

let predict t page =
  match Int_table.find_opt t.table page with Some e -> e.successors | None -> []
