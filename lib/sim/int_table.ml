(* A chained hash table specialised to int keys. [Hashtbl.Make] would
   reach the hash and the key equality through its functor argument, an
   indirect call each per probe; here both are inline integer operations,
   which makes a lookup about twice as fast on the simulator's small
   tables. The layout (bucket array of per-binding cells, doubling at two
   bindings per bucket) is Hashtbl's. *)

(* Multiply by an odd constant, then fold the well-mixed high bits down
   into the low bits that the bucket mask keeps. *)
let hash k =
  let h = k * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

type 'a bucket = Empty | Cons of { key : int; mutable data : 'a; mutable next : 'a bucket }

type 'a t = {
  mutable size : int;
  mutable buckets : 'a bucket array;  (* length is a power of two *)
  initial : int;
}

let rec power_of_two_above n x = if x >= n then x else power_of_two_above n (2 * x)

let create n =
  let initial = power_of_two_above n 8 in
  { size = 0; buckets = Array.make initial Empty; initial }

let length t = t.size
let index t k = hash k land (Array.length t.buckets - 1)

let clear t =
  if t.size > 0 then begin
    t.size <- 0;
    Array.fill t.buckets 0 (Array.length t.buckets) Empty
  end

let reset t =
  if Array.length t.buckets = t.initial then clear t
  else begin
    t.size <- 0;
    t.buckets <- Array.make t.initial Empty
  end

let rec find_in k = function
  | Empty -> raise Not_found
  | Cons c -> if c.key = k then c.data else find_in k c.next

let find t k = find_in k t.buckets.(index t k)

let rec find_opt_in k = function
  | Empty -> None
  | Cons c -> if c.key = k then Some c.data else find_opt_in k c.next

let find_opt t k = find_opt_in k t.buckets.(index t k)

let rec mem_in k = function Empty -> false | Cons c -> c.key = k || mem_in k c.next

let mem t k = mem_in k t.buckets.(index t k)

let resize t =
  let old = t.buckets in
  let fresh = Array.make (2 * Array.length old) Empty in
  let mask = Array.length fresh - 1 in
  let rec move = function
    | Empty -> ()
    | Cons c as cell ->
        let next = c.next in
        let i = hash c.key land mask in
        c.next <- fresh.(i);
        fresh.(i) <- cell;
        move next
  in
  Array.iter move old;
  t.buckets <- fresh

(* [true] when [k] was found (and its data replaced). *)
let rec replace_in k v = function
  | Empty -> false
  | Cons c ->
      if c.key = k then begin
        c.data <- v;
        true
      end
      else replace_in k v c.next

let replace t k v =
  let i = index t k in
  if not (replace_in k v t.buckets.(i)) then begin
    t.buckets.(i) <- Cons { key = k; data = v; next = t.buckets.(i) };
    t.size <- t.size + 1;
    if t.size > 2 * Array.length t.buckets then resize t
  end

let rec remove_in t i k prev = function
  | Empty -> ()
  | Cons c as cell ->
      if c.key = k then begin
        t.size <- t.size - 1;
        match prev with
        | Empty -> t.buckets.(i) <- c.next
        | Cons p -> p.next <- c.next
      end
      else remove_in t i k cell c.next

let remove t k =
  let i = index t k in
  remove_in t i k Empty t.buckets.(i)
