type 'v slot = { slot_lock : Mutex.t; mutable value : 'v option }
type ('k, 'v) t = { lock : Mutex.t; table : ('k, 'v slot) Hashtbl.t }

let create ?(size = 16) () = { lock = Mutex.create (); table = Hashtbl.create size }

let find_or_add t key f =
  (* Get-or-insert the per-key slot under the (cheap) table lock, then
     compute under the slot's own lock: concurrent callers of the same
     key block until the first one finishes, while different keys
     compute in parallel. If [f] raises, the slot stays empty and the
     next caller retries. *)
  let slot =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some s -> s
        | None ->
            let s = { slot_lock = Mutex.create (); value = None } in
            Hashtbl.add t.table key s;
            s)
  in
  Mutex.protect slot.slot_lock (fun () ->
      match slot.value with
      | Some v -> v
      | None ->
          let v = f () in
          slot.value <- Some v;
          v)

let mem t key =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some { value = Some _; _ } -> true
      | Some { value = None; _ } | None -> false)

let once f =
  let lock = Mutex.create () in
  let cell = ref None in
  fun () ->
    Mutex.protect lock (fun () ->
        match !cell with
        | Some v -> v
        | None ->
            let v = f () in
            cell := Some v;
            v)
