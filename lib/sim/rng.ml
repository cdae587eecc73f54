(* The 64-bit state lives in an 8-byte buffer rather than a mutable
   [int64] field: a field would box a fresh int64 on every draw, while
   the buffer's get/set primitives and the inlined [mix] keep the whole
   step in registers, so [int], [float], [bool] and [shuffle] allocate
   nothing. Known-answer tests in test_sim pin the stream. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create ~seed = of_state (mix (Int64.of_int seed))

let[@inline] next_int64 t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix s

let split t = of_state (next_int64 t)

let int t bound =
  assert (bound > 0);
  let mask = Int64.shift_right_logical (next_int64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let float t bound =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L
let bernoulli t p = float t 1.0 < p

let shuffle_prefix t a len =
  if len < 0 || len > Array.length a then invalid_arg "Rng.shuffle_prefix";
  for i = len - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle t a = shuffle_prefix t a (Array.length a)
