module Int_table = Rio_sim.Int_table

let name = "distance"

let degree = 1

type entry = { mutable nexts : int list (* follow-on distances, <= degree *) }

type t = {
  history : int;
  table : entry Int_table.t;
  order : int Queue.t;
  mutable last_page : int option;
  mutable last_distance : int option;
}

let create ~history =
  if history <= 0 then invalid_arg "Distance.create: history";
  {
    history;
    table = Int_table.create history;
    order = Queue.create ();
    last_page = None;
    last_distance = None;
  }

let entry t dist =
  match Int_table.find_opt t.table dist with
  | Some e -> e
  | None ->
      if Int_table.length t.table >= t.history then begin
        let rec evict () =
          match Queue.take_opt t.order with
          | None -> ()
          | Some victim ->
              if Int_table.mem t.table victim then Int_table.remove t.table victim
              else evict ()
        in
        evict ()
      end;
      let e = { nexts = [] } in
      Int_table.replace t.table dist e;
      Queue.add dist t.order;
      e

let observe t page =
  (match t.last_page with
  | Some prev ->
      let dist = page - prev in
      (match t.last_distance with
      | Some prev_dist ->
          let e = entry t prev_dist in
          let without = List.filter (fun d -> d <> dist) e.nexts in
          let trimmed =
            if List.length without >= degree then
              List.filteri (fun i _ -> i < degree - 1) without
            else without
          in
          e.nexts <- dist :: trimmed
      | None -> ());
      t.last_distance <- Some dist
  | None -> ());
  t.last_page <- Some page

let invalidate t page =
  (* distances carry no page identity; only the anchor can be dropped *)
  if t.last_page = Some page then begin
    t.last_page <- None;
    t.last_distance <- None
  end

let predict t page =
  match t.last_distance with
  | None -> []
  | Some dist -> (
      match Int_table.find_opt t.table dist with
      | None -> []
      | Some e -> List.map (fun d -> page + d) e.nexts)
