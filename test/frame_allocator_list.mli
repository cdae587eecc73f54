(** Frame allocator with a cons-list free list and a polymorphic
    [Hashtbl] live set; same interface and semantics as
    {!Rio_memory.Frame_allocator}. *)

type t

val create : total_frames:int -> t
val alloc : t -> Rio_memory.Addr.phys option
val alloc_exn : t -> Rio_memory.Addr.phys
val alloc_contiguous : t -> frames:int -> Rio_memory.Addr.phys option
val free : t -> Rio_memory.Addr.phys -> unit
val allocated : t -> int
val total : t -> int
