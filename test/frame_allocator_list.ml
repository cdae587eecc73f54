(* The list + Hashtbl frame allocator: the differential oracle the
   bitset Rio_memory.Frame_allocator is checked against in test_memory. *)

module Addr = Rio_memory.Addr

type t = {
  total : int;
  mutable bump : int;  (* next never-allocated pfn *)
  mutable free_list : int list;
  live : (int, unit) Hashtbl.t;
}

let create ~total_frames =
  if total_frames <= 0 then invalid_arg "Frame_allocator.create";
  { total = total_frames; bump = 0; free_list = []; live = Hashtbl.create 256 }

let alloc t =
  match t.free_list with
  | pfn :: rest ->
      t.free_list <- rest;
      Hashtbl.replace t.live pfn ();
      Some (Addr.of_pfn pfn)
  | [] ->
      if t.bump >= t.total then None
      else begin
        let pfn = t.bump in
        t.bump <- t.bump + 1;
        Hashtbl.replace t.live pfn ();
        Some (Addr.of_pfn pfn)
      end

let alloc_exn t =
  match alloc t with
  | Some a -> a
  | None -> failwith "Frame_allocator: out of physical memory"

let alloc_contiguous t ~frames =
  if frames <= 0 then invalid_arg "Frame_allocator.alloc_contiguous";
  if t.bump + frames > t.total then None
  else begin
    let first = t.bump in
    t.bump <- t.bump + frames;
    for pfn = first to first + frames - 1 do
      Hashtbl.replace t.live pfn ()
    done;
    Some (Addr.of_pfn first)
  end

let free t addr =
  if not (Addr.is_page_aligned addr) then
    invalid_arg "Frame_allocator.free: not page aligned";
  let pfn = Addr.pfn addr in
  if not (Hashtbl.mem t.live pfn) then
    invalid_arg "Frame_allocator.free: frame not allocated";
  Hashtbl.remove t.live pfn;
  t.free_list <- pfn :: t.free_list

let allocated t = Hashtbl.length t.live
let total t = t.total
