(** Deterministic pseudo-random number generation (splitmix64).

    All randomness in the simulation flows through an explicit generator so
    that every experiment is reproducible from its seed. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** A generator seeded deterministically from [seed]. *)

val split : t -> t
(** Derive an independent generator stream (for parallel subsystems that
    must not perturb each other's sequences). *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** A fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val shuffle_prefix : t -> 'a array -> int -> unit
(** [shuffle_prefix t a len] shuffles [a.(0) .. a.(len - 1)] in place,
    drawing exactly what {!shuffle} draws for an array of length [len],
    so a reused scratch array yields the same permutation as a fresh one.
    Raises [Invalid_argument] unless [0 <= len <= Array.length a]. *)
