(** Physical frame allocator.

    Hands out 4 KB frames from a bounded physical memory. Freed frames are
    recycled LIFO, which (as on a real machine under load) makes reuse of
    recently-unmapped frames the common case — exactly the situation the
    deferred IOMMU mode's vulnerability window exposes.

    [alloc], [alloc_exn] and [allocated] are O(1), [free] amortized
    O(1), [alloc_contiguous] O(frames). The live set is a bitset of
    [total_frames/8] bytes, allocated by {!create}. Freed frames wait on
    an int stack allocated in 4096-entry chunks as it deepens, so it
    never takes more than the most frames ever free at once (rounded up
    to a chunk) plus a small directory: at most [total_frames] words. *)

type t

val create : total_frames:int -> t
(** A memory of [total_frames] 4 KB frames starting at physical 0. *)

val alloc : t -> Addr.phys option
(** Allocate one frame; [None] when physical memory is exhausted. *)

val alloc_exn : t -> Addr.phys
(** Like {!alloc} but raises [Failure] on exhaustion. *)

val alloc_contiguous : t -> frames:int -> Addr.phys option
(** Allocate [frames] physically contiguous frames (for rings and page
    tables). Only draws from the never-allocated region, so it can fail
    even when enough fragmented frames are free. *)

val free : t -> Addr.phys -> unit
(** Return a frame. Raises [Invalid_argument] if the address is not
    page-aligned or was not allocated (including a frame outside
    [\[0, total_frames)]). *)

val allocated : t -> int
(** Frames currently live. *)

val total : t -> int
