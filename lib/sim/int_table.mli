(** Hash table over [int] keys, with an explicit integer hash.

    The simulator keys its lookup tables (IOVA magazines, context and
    rIOMMU device entries, the rIOTLB, per-domain registries, prefetcher
    histories) on plain integers; this table hashes them with an
    explicit multiplicative mix, the same on every run, and keeps
    polymorphic hashing and polymorphic equality off those paths. It
    offers no iteration, so the bucket order the hash induces can never
    reach an output. Operations behave like [Stdlib.Hashtbl]'s of the
    same name on a table that never holds two bindings for one key. *)

type 'a t

val create : int -> 'a t
(** An empty table sized for about [n] bindings. *)

val length : 'a t -> int

val find : 'a t -> int -> 'a
(** @raise Not_found when the key is unbound. *)

val find_opt : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, replacing its previous binding if any. *)

val remove : 'a t -> int -> unit
(** Unbind the key; no-op when it is unbound. *)

val reset : 'a t -> unit
(** Remove every binding and shrink back to the initial size. *)
