(* Readiness facade: runtime choice between the poll(2) backend
   (Readiness_poll) and a portable Unix.select backend
   that reproduces PR 8's per-wakeup list building. Registration
   bookkeeping for the select path lives here — sparse handle arrays
   over a dense iteration order, same shape as Readiness_poll, so the
   two backends are observationally identical up to the fd cap. *)

type backend = Select | Poll

let default_backend = Poll

let backend_name = function Select -> "select" | Poll -> "poll"

let backend_of_string = function
  | "select" -> Ok Select
  | "poll" -> Ok Poll
  | s -> Error (Printf.sprintf "unknown backend %S (want poll|select)" s)

(* Portable floor: platforms may set FD_SETSIZE higher, but 1024 is
   the value everywhere we run and overshooting it corrupts fd_set
   bitmaps, so clamp to the floor rather than probe. *)
let fd_setsize = 1024
let max_fds = function Select -> fd_setsize | Poll -> max_int
let ev_read = 1
let ev_write = 2
let ev_err = 4

(* --- select backend ------------------------------------------------ *)

type sel = {
  mutable n : int; (* live dense slots *)
  mutable d_handle : int array; (* dense idx -> handle *)
  mutable d_ready : int array; (* dense idx -> bits from last wait *)
  mutable h_dense : int array; (* handle -> dense idx, -1 when free *)
  mutable h_fd : Unix.file_descr array;
  mutable h_token : int array;
  mutable h_events : int array;
  mutable free : int array;
  mutable free_top : int;
  mutable h_cap : int;
}

let sel_initial_cap = 16

let sel_create () =
  {
    n = 0;
    d_handle = Array.make sel_initial_cap (-1);
    d_ready = Array.make sel_initial_cap 0;
    h_dense = Array.make sel_initial_cap (-1);
    h_fd = Array.make sel_initial_cap Unix.stdin;
    h_token = Array.make sel_initial_cap (-1);
    h_events = Array.make sel_initial_cap 0;
    free = Array.make sel_initial_cap (-1);
    free_top = 0;
    h_cap = sel_initial_cap;
  }

let sel_grow s =
  let cap = s.h_cap * 2 in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 s.h_cap;
    b
  in
  s.d_handle <- extend s.d_handle (-1);
  s.d_ready <- extend s.d_ready 0;
  s.h_dense <- extend s.h_dense (-1);
  s.h_fd <- extend s.h_fd Unix.stdin;
  s.h_token <- extend s.h_token (-1);
  s.h_events <- extend s.h_events 0;
  s.free <- extend s.free (-1);
  s.h_cap <- cap

let sel_register s fd ~token =
  let handle =
    if s.free_top > 0 then (
      s.free_top <- s.free_top - 1;
      s.free.(s.free_top))
    else (
      (* live + free handles track dense slots, so with the free
         stack empty [n] is the next unminted handle id *)
      if s.n >= s.h_cap then sel_grow s;
      s.n)
  in
  let slot = s.n in
  if slot >= s.h_cap then sel_grow s;
  s.d_handle.(slot) <- handle;
  s.d_ready.(slot) <- 0;
  s.h_dense.(handle) <- slot;
  s.h_fd.(handle) <- fd;
  s.h_token.(handle) <- token;
  s.h_events.(handle) <- 0;
  s.n <- slot + 1;
  handle

let sel_unregister s ~handle =
  let slot = s.h_dense.(handle) in
  if slot < 0 then invalid_arg "Readiness.unregister: dead handle";
  let last = s.n - 1 in
  if slot <> last then (
    let moved = s.d_handle.(last) in
    s.d_handle.(slot) <- moved;
    s.d_ready.(slot) <- s.d_ready.(last);
    s.h_dense.(moved) <- slot);
  s.n <- last;
  s.h_dense.(handle) <- -1;
  s.free.(s.free_top) <- handle;
  s.free_top <- s.free_top + 1

let sel_interest s ~handle ~read ~write =
  s.h_events.(handle) <-
    (if read then ev_read else 0) lor if write then ev_write else 0

let sel_wait s ~timeout_ms =
  let rds = ref [] and wrs = ref [] in
  for i = s.n - 1 downto 0 do
    s.d_ready.(i) <- 0;
    let h = s.d_handle.(i) in
    let ev = s.h_events.(h) in
    if ev land ev_read <> 0 then rds := s.h_fd.(h) :: !rds;
    if ev land ev_write <> 0 then wrs := s.h_fd.(h) :: !wrs
  done;
  let timeout =
    if timeout_ms < 0 then -1.0 else float_of_int timeout_ms /. 1000.
  in
  match Unix.select !rds !wrs [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> 0
  | r, w, _ ->
      let count = ref 0 in
      for i = 0 to s.n - 1 do
        let h = s.d_handle.(i) in
        let fd = s.h_fd.(h) in
        let bits =
          (if List.memq fd r then ev_read else 0)
          lor if List.memq fd w then ev_write else 0
        in
        if bits <> 0 then (
          s.d_ready.(i) <- bits;
          incr count)
      done;
      !count

let sel_iter_ready s f =
  for i = 0 to s.n - 1 do
    let bits = s.d_ready.(i) in
    if bits <> 0 then f s.h_token.(s.d_handle.(i)) bits
  done

(* --- facade -------------------------------------------------------- *)

type t = P of Readiness_poll.t | S of sel

let create = function
  | Poll -> P (Readiness_poll.create ())
  | Select -> S (sel_create ())

let backend = function P _ -> Poll | S _ -> Select

let register t fd ~token =
  match t with
  | P p -> Readiness_poll.register p fd ~token
  | S s -> sel_register s fd ~token

let unregister t ~handle =
  match t with
  | P p -> Readiness_poll.unregister p ~handle
  | S s -> sel_unregister s ~handle

let interest t ~handle ~read ~write =
  match t with
  | P p -> Readiness_poll.interest p ~handle ~read ~write
  | S s -> sel_interest s ~handle ~read ~write

let registered = function
  | P p -> Readiness_poll.registered p
  | S s -> s.n

let wait t ~timeout_ms =
  match t with
  | P p -> Readiness_poll.wait p ~timeout_ms
  | S s -> sel_wait s ~timeout_ms

let iter_ready t f =
  match t with
  | P p -> Readiness_poll.iter_ready p f
  | S s -> sel_iter_ready s f
