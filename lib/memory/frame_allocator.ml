type t = {
  total : int;
  mutable bump : int;  (* next never-allocated pfn *)
  live : Bytes.t;  (* one bit per frame *)
  mutable allocated : int;
  mutable chunks : int array array;  (* the free stack, [chunk] pfns per chunk *)
  mutable top : int;  (* frames on the free stack; the latest is entry [top - 1] *)
}

(* The free stack is chunked rather than one doubling array: it can grow
   to hundreds of thousands of frames (contiguous allocations never reuse
   freed frames), and each doubling would leave the previous array as
   major-heap garbage until the next major cycle sweeps it. Chunks are
   allocated as the stack deepens and kept when it shrinks. *)
let chunk_bits = 12
let chunk = 1 lsl chunk_bits

let create ~total_frames =
  if total_frames <= 0 then invalid_arg "Frame_allocator.create";
  {
    total = total_frames;
    bump = 0;
    live = Bytes.make ((total_frames + 7) lsr 3) '\000';
    allocated = 0;
    chunks = [||];
    top = 0;
  }

let is_live t pfn =
  Char.code (Bytes.get t.live (pfn lsr 3)) land (1 lsl (pfn land 7)) <> 0

let set_live t pfn =
  let i = pfn lsr 3 in
  Bytes.set t.live i
    (Char.unsafe_chr (Char.code (Bytes.get t.live i) lor (1 lsl (pfn land 7))))

let clear_live t pfn =
  let i = pfn lsr 3 in
  Bytes.set t.live i
    (Char.unsafe_chr (Char.code (Bytes.get t.live i) land lnot (1 lsl (pfn land 7))))

let alloc t =
  if t.top > 0 then begin
    t.top <- t.top - 1;
    let pfn = t.chunks.(t.top lsr chunk_bits).(t.top land (chunk - 1)) in
    set_live t pfn;
    t.allocated <- t.allocated + 1;
    Some (Addr.of_pfn pfn)
  end
  else if t.bump >= t.total then None
  else begin
    let pfn = t.bump in
    t.bump <- t.bump + 1;
    set_live t pfn;
    t.allocated <- t.allocated + 1;
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
      set_live t pfn
    done;
    t.allocated <- t.allocated + frames;
    Some (Addr.of_pfn first)
  end

(* Every stacked pfn is a distinct freed frame, so the stack never holds
   more than [total] entries. *)
let push_free t pfn =
  let c = t.top lsr chunk_bits in
  if c = Array.length t.chunks then begin
    let dir = Array.make (max 4 (2 * c)) [||] in
    Array.blit t.chunks 0 dir 0 c;
    t.chunks <- dir
  end;
  if Array.length t.chunks.(c) = 0 then
    t.chunks.(c) <- Array.make (min chunk t.total) 0;
  t.chunks.(c).(t.top land (chunk - 1)) <- pfn;
  t.top <- t.top + 1

let free t addr =
  if not (Addr.is_page_aligned addr) then
    invalid_arg "Frame_allocator.free: not page aligned";
  let pfn = Addr.pfn addr in
  if pfn < 0 || pfn >= t.total || not (is_live t pfn) then
    invalid_arg "Frame_allocator.free: frame not allocated";
  clear_live t pfn;
  t.allocated <- t.allocated - 1;
  push_free t pfn

let allocated t = t.allocated
let total t = t.total
