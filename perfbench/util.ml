(* Clock, latency histogram, span accumulators and the metrics line.

   Every interval the benchmark reports is taken with one clock: the
   monotonic integer-nanosecond counter of bechamel's
   [Monotonic_clock] (CLOCK_MONOTONIC, the same clock Python's
   [time.monotonic_ns] reads, so run.py can subtract across the
   process boundary). *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Cost of one [now_ns] read, the median of back-to-back pairs. Span
   totals subtract it once per call so a span around a 50 ns call
   reports the call, not the clock. *)
let clock_overhead_ns =
  lazy
    (let n = 2001 in
     let d = Array.init n (fun _ ->
       let a = now_ns () in
       now_ns () - a)
     in
     Array.sort compare d;
     d.(n / 2))

external pin : int -> int -> bool = "perfbench_pin"
external allowed_cpus : unit -> int = "perfbench_allowed_cpus"

(* The two lowest CPUs this process could run on at start-up, as
   (server, generator):
   the socket workloads pin the two ends apart so the scheduler never
   stacks them on one CPU. [None] on a one-CPU machine. *)
let cpu_pair =
  let v = allowed_cpus () in
  if v < 0 then None else Some (v / 4096, v mod 4096)

(* Log-linear histogram of non-negative ints (nanoseconds): exact below
   256, then 128 sub-buckets per power of two (< 0.8% relative error),
   up to 2^40. The benchmark keeps its own so that a change to the
   service's [Histogram] cannot move the measurement. *)
module Hist = struct
  let sub = 7
  let top = 40
  let nbuckets = (top - sub + 1) lsl sub + (1 lsl sub)

  type t = { counts : int array; mutable n : int }

  let create () = { counts = Array.make nbuckets 0; n = 0 }

  let msb v =
    let r = ref 0 and v = ref v in
    if !v lsr 32 <> 0 then (v := !v lsr 32; r := !r + 32);
    if !v lsr 16 <> 0 then (v := !v lsr 16; r := !r + 16);
    if !v lsr 8 <> 0 then (v := !v lsr 8; r := !r + 8);
    if !v lsr 4 <> 0 then (v := !v lsr 4; r := !r + 4);
    if !v lsr 2 <> 0 then (v := !v lsr 2; r := !r + 2);
    if !v lsr 1 <> 0 then r := !r + 1;
    !r

  let bucket v =
    let v = if v < 0 then 0 else if v >= 1 lsl top then (1 lsl top) - 1 else v in
    if v < 1 lsl (sub + 1) then v
    else
      let shift = msb v - sub in
      (shift lsl sub) + (v lsr shift)

  (* Midpoint of a bucket's value range. *)
  let value b =
    if b < 1 lsl (sub + 1) then b
    else
      let shift = (b lsr sub) - 1 in
      let mant = b - (shift lsl sub) in
      (mant lsl shift) + ((1 lsl shift) lsr 1)

  let record t v =
    let b = bucket v in
    t.counts.(b) <- t.counts.(b) + 1;
    t.n <- t.n + 1

  let count t = t.n

  let clear t =
    Array.fill t.counts 0 (Array.length t.counts) 0;
    t.n <- 0

  let quantile t q =
    if t.n = 0 then 0
    else begin
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.n))) in
      let acc = ref 0 and b = ref 0 in
      while !acc + t.counts.(!b) < rank do
        acc := !acc + t.counts.(!b);
        incr b
      done;
      value !b
    end
end

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The [q]-quantile of [a], interpolating linearly between ranks. *)
let quantile a q =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let x = q *. float_of_int (n - 1) in
    let i = int_of_float x in
    let j = min (i + 1) (n - 1) in
    a.(i) +. ((a.(j) -. a.(i)) *. (x -. float_of_int i))

(* A span accumulator: calls and summed wall nanoseconds of one layer
   boundary. Spans at one boundary never nest, so the total is the
   layer's self time. *)
module Span = struct
  type t = { mutable calls : int; mutable total : int }

  let create () = { calls = 0; total = 0 }

  let add t t0 =
    t.calls <- t.calls + 1;
    t.total <- t.total + (now_ns () - t0)

  (* Self nanoseconds with the clock's own cost taken out. *)
  let self_ns t = max 0 (t.total - (t.calls * Lazy.force clock_overhead_ns))

  let per t denom =
    if denom <= 0 then 0. else float_of_int (self_ns t) /. float_of_int denom
end

(* CPU seconds this process has used. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU seconds a process has used (user + system), from
   /proc/PID/stat fields 14 and 15, in clock ticks. *)
let clk_tck = 100.

let proc_cpu_s pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = input_line ic in
  close_in ic;
  (* the command field may hold spaces; fields resume after its ')' *)
  let rest = String.sub line (String.rindex line ')' + 2)
      (String.length line - String.rindex line ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* rest starts at field 3 (state); utime is field 14, stime 15 *)
  (float_of_string f.(11) +. float_of_string f.(12)) /. clk_tck

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let proc_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec go () =
    match input_line ic with
    | exception End_of_file -> 0.
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> go ()
  in
  let v = go () in
  close_in ic;
  v

(* The result line: one flat JSON object. run.py attaches units from
   BENCHMARK.json and checks every declared name is present. *)
type value = I of int | F of float | S of string | B of bool

let emit fields =
  let b = Buffer.create 1024 in
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "%S: " k;
      match v with
      | I n -> Printf.bprintf b "%d" n
      | F x ->
          if Float.is_finite x then Printf.bprintf b "%.17g" x
          else Buffer.add_string b "0"
      | S s -> Printf.bprintf b "%S" s
      | B x -> Buffer.add_string b (if x then "true" else "false"))
    fields;
  Buffer.add_char b '}';
  print_endline (Buffer.contents b)
