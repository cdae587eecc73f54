(** Red-black interval tree holding allocated IOVA ranges.

    This is the data structure the Linux IOVA allocator keeps its ranges
    in: nodes are [\[lo, hi\]] page-frame-number intervals ordered by [lo],
    with parent pointers so the allocators can walk neighbours
    ([rb_prev]/[rb_next]) during their downward gap scans.

    Every node dereference increments a visit counter; the allocators
    convert visit deltas into cycles, which is how the paper's Table 1
    component costs (and the strict-mode linear pathology) emerge from the
    real algorithm rather than from hard-coded constants. *)

type t

(** A node, readable but not writable outside this module. Callers read
    [lo], [hi], [cached_free] and [is_nil] as fields: accessor functions
    would cost a call per read in the allocators' scans, since modules
    are compiled [-opaque] and nothing is inlined across them. The tree
    links and colour are this module's business. *)
type node = private {
  mutable lo : int;  (** first pfn of the interval *)
  mutable hi : int;  (** last pfn, inclusive *)
  mutable left : node;
  mutable right : node;
  mutable parent : node;
  mutable red : bool;
  mutable cached_free : bool;
      (** scratch flag used by the constant-time allocator to mark nodes
          whose range is in its free-magazine rather than live *)
  mutable is_nil : bool;
      (** [true] for the tree's sentinel, which the neighbour queries
          below return for "no such node" (the kernel's [NULL]) instead
          of an option box; its [lo]/[hi] are meaningless *)
}

val create : unit -> t
val size : t -> int
val set_cached_free : node -> bool -> unit

(** {1 Queries} *)

val find_containing : t -> int -> node option
(** The node whose interval contains the given pfn, if any. *)

val find_containing_exn : t -> int -> node
(** Allocation-free twin of {!find_containing}: same traversal and visit
    counting, no option box. @raise Not_found when absent. *)

val max_node : t -> node
(** Highest interval ([rb_last]), or the sentinel on an empty tree. *)

val min_node : t -> node
(** Lowest interval, or the sentinel on an empty tree. *)

val prev : t -> node -> node
(** In-order predecessor ([rb_prev]), or the sentinel. *)

val next : t -> node -> node
(** In-order successor ([rb_next]), or the sentinel. *)

(** {1 Mutation} *)

val insert : t -> lo:int -> hi:int -> node
(** Insert a fresh interval. Raises [Invalid_argument] if it overlaps an
    existing one or [lo > hi]. *)

val delete : t -> node -> unit
(** Remove a node. Raises [Invalid_argument] if the node was already
    deleted. *)

(** {1 Accounting and verification} *)

val visits : t -> int
(** Total node dereferences so far (monotonic). *)

val iter : t -> (node -> unit) -> unit
(** In-order iteration (does not count visits). *)

val check_invariants : t -> (unit, string) result
(** Validate the red-black properties, ordering, and interval
    disjointness; used by property tests. *)
