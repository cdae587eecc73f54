(* perfbench: the measuring half of the benchmark; run.py builds it,
   calls it and prints the result line.

     perfbench socket --workload W --seed N --seconds S --trace 0|1
                      --serve EXE --rundir DIR [--corrupt-translate N]
     perfbench repro-setup --seed N --jobs J [--quick]
     perfbench repro-trace --seed N --jobs J [--quick]

   Each prints one flat JSON object as its last line. *)

open Util

let setups = 15

(* --- the socket workloads against a real riommu-serve --------------- *)

type server = { pid : int; sock : string; stats : string }

let spawn_server ~serve ~rundir ~k =
  let sock = Filename.concat rundir (Printf.sprintf "s%d.sock" k) in
  let stats = Filename.concat rundir (Printf.sprintf "stats%d.json" k) in
  let log = Unix.openfile (Filename.concat rundir (Printf.sprintf "serve%d.log" k))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let argv =
    Array.of_list
      ((serve :: "--listen" :: ("unix:" ^ sock) :: Script.server_flags)
      @ [ "--stats"; stats ])
  in
  let pid = Unix.create_process serve argv null log log in
  Option.iter (fun (server_cpu, _) -> ignore (pin pid server_cpu : bool)) cpu_pair;
  Unix.close null;
  Unix.close log;
  { pid; sock; stats }

let rec connect_retry path deadline =
  match Loadgen.connect path with
  | fd -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when now_ns () < deadline ->
      Unix.sleepf 0.0005;
      connect_retry path deadline

let stop_server s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid : int * Unix.process_status)

(* The number after the first ["key":] in the server's stats JSON. *)
let json_num text key =
  let pat = Printf.sprintf "\"%s\":" key in
  let n = String.length pat in
  let rec find i =
    if i + n > String.length text then failwith ("stats: no " ^ key)
    else if String.sub text i n = pat then i + n
    else find (i + 1)
  in
  let i = ref (find 0) in
  while text.[!i] = ' ' do incr i done;
  let j = ref !i in
  while !j < String.length text && (match text.[!j] with '0' .. '9' | '.' | '-' -> true | _ -> false) do
    incr j
  done;
  float_of_string (String.sub text !i (!j - !i))

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let sum_rings conns f = Array.fold_left (fun a c -> a + f c.Loadgen.ring) 0 conns

let answered conns =
  sum_rings conns (fun r -> r.Script.ok + r.Script.failed)

(* The per-layer replays of a traced run: the server loop over a
   socketpair, then the shards directly. [true] if both verified every
   answer and the shards counted exactly one fault per probe. *)
let layers workload ~seed ~seconds ~server_ns add =
  let r = Replay.socket_loop workload ~seed ~seconds in
  let per sp = Span.per sp r.Replay.ops in
  let sum =
    per r.Replay.read +. per r.Replay.next +. per r.Replay.enqueue
    +. per r.Replay.flush +. per r.Replay.write
  in
  add "readiness.wait_ns_per_call" (F (Span.per r.Replay.wait r.Replay.wait.Span.calls));
  add "readiness.wakeups_per_op"
    (F (float_of_int r.Replay.wakeups /. float_of_int r.Replay.ops));
  add "transport.read_ns_per_op" (F (per r.Replay.read));
  add "transport.write_ns_per_op" (F (per r.Replay.write));
  add "conn.next_ns_per_op" (F (per r.Replay.next));
  add "dispatch.enqueue_ns_per_op" (F (per r.Replay.enqueue));
  add "dispatch.flush_ns_per_op" (F (per r.Replay.flush));
  add "replay.cpu_ns_per_op" (F (r.Replay.cpu_s *. 1e9 /. float_of_int r.Replay.ops));
  add "replay.layer_sum_ns_per_op" (F sum);
  add "unattributed_server_ns_per_op" (F (server_ns -. sum));
  (* about a million shard calls either way *)
  let batches = match workload with Script.Rr_ping -> 500_000 | _ -> 8_000 in
  let sr = Replay.shards workload ~seed ~batches in
  let mean sp = Span.per sp sp.Span.calls in
  add "shard.translate_ns" (F (mean sr.Replay.s_translate));
  add "shard.map_ns" (F (mean sr.Replay.s_map));
  add "shard.unmap_ns" (F (mean sr.Replay.s_unmap));
  let ratio a b = float_of_int a /. float_of_int (max 1 b) in
  add "iotlb.hit_ratio" (F (ratio sr.Replay.hits (sr.Replay.hits + sr.Replay.misses)));
  add "iotlb.evictions_per_op" (F (ratio sr.Replay.evictions sr.Replay.s_ops));
  add "iotlb.invalidations_per_op" (F (ratio sr.Replay.invalidations sr.Replay.s_ops));
  add "iotlb.domain_flushes" (F (float_of_int sr.Replay.domain_flushes));
  add "shard.faults" (F (float_of_int sr.Replay.faults));
  add "shard.translate_p50_sim_cycles" (F (float_of_int sr.Replay.translate_p50_cycles));
  add "info.shard_replay_probes" (I sr.Replay.probes);
  r.Replay.child_ok && sr.Replay.s_ok && sr.Replay.faults = sr.Replay.probes

let socket workload ~seed ~seconds ~trace ~serve ~rundir ~corrupt =
  let st = Loadgen.create_stats () in
  st.Loadgen.corrupt <- corrupt;
  (* set-up: server start, connects and hellos, premap; [setups]
     times, the last one kept for the measured phase *)
  Option.iter (fun (_, gen_cpu) -> ignore (pin 0 gen_cpu : bool)) cpu_pair;
  let setup_ns = Array.make setups 0 in
  let server = ref None and conns = ref [||] in
  let current = ref None in
  at_exit (fun () -> Option.iter stop_server !current);
  for k = 0 to setups - 1 do
    let t0 = now_ns () in
    let s = spawn_server ~serve ~rundir ~k in
    current := Some s;
    let deadline = t0 + 30_000_000_000 in
    let cs =
      Array.init Script.conns (fun idx ->
          let fd = connect_retry s.sock deadline in
          Loadgen.create_conn fd (Script.create workload ~seed ~idx))
    in
    Loadgen.setup st cs;
    setup_ns.(k) <- now_ns () - t0;
    if k < setups - 1 then begin
      Array.iter (fun c -> Unix.close c.Loadgen.fd) cs;
      stop_server s;
      current := None
    end
    else begin
      server := Some s;
      conns := cs
    end
  done;
  let s = Option.get !server and conns = !conns in
  let phase ~trace ~measure secs =
    let ok0 = sum_rings conns (fun r -> r.Script.ok) and n0 = answered conns in
    let sys0 = st.Loadgen.syscalls in
    let scpu0 = proc_cpu_s s.pid and gcpu0 = cpu_now () in
    let ns = Loadgen.run ~trace ~measure ~seconds:secs st conns in
    let scpu = proc_cpu_s s.pid -. scpu0 and gcpu = cpu_now () -. gcpu0 in
    let ok = sum_rings conns (fun r -> r.Script.ok) - ok0 in
    let n = answered conns - n0 in
    (ok, n, ns, scpu, gcpu, st.Loadgen.syscalls - sys0)
  in
  let warm = Float.min 1.0 (seconds *. 0.1) in
  let result = ref [] in
  let add k v = result := (k, v) :: !result in
  (match
     ignore (phase ~trace:false ~measure:false warm);
     let secs = if trace then seconds /. 2. else seconds in
     let ok, n, ns, scpu, gcpu, sys = phase ~trace:false ~measure:true secs in
     let wall = float_of_int ns /. 1e9 in
     let ops_per_s = float_of_int ok /. wall in
     (* Host CPU speed on a shared machine swings by a third within
        seconds (a bare compute loop's 100 ms rates span 0.8x-1.3x of
        their median), and how long a run spends fast moves the
        median from run to run. The figures reported are the ones the
        service sustains in 90% of the 100 ms windows: the 10th
        percentile of window rates and the 90th percentile of window
        median latencies. *)
     let rates = Array.of_list st.Loadgen.rates in
     let wp50s = Array.of_list st.Loadgen.wp50s in
     let sustained_rate = quantile rates 0.1 in
     let quantiles a scale =
       String.concat " "
         (List.map (fun q -> Printf.sprintf "%.4g" (quantile a q /. scale))
            [ 0.1; 0.25; 0.5; 0.75; 0.9 ])
     in
     add "ops_per_s" (F sustained_rate);
     add "info.mean_ops_per_s" (F ops_per_s);
     add "info.windows" (I (Array.length rates));
     add "info.window_rates_p10_p25_p50_p75_p90" (S (quantiles rates 1.));
     add "info.window_p50_us_p10_p25_p50_p75_p90" (S (quantiles wp50s 1e3));
     add "p50_us" (F (quantile wp50s 0.9 /. 1e3));
     add "p99_us" (F (float_of_int (Hist.quantile st.Loadgen.lat 0.99) /. 1e3));
     add "latency_samples" (I (Hist.count st.Loadgen.lat));
     add "repro_s" (F (1e6 /. sustained_rate));
     let setup_s = Array.map (fun ns -> float_of_int ns /. 1e9) setup_ns in
     add "setup_s" (F (median setup_s));
     add "info.setup_ms_p10_p25_p50_p75_p90" (S (quantiles setup_s 1e-3));
     add "peak_rss_mb" (F (proc_hwm_mb s.pid));
     add "loadgen.syscalls_per_op" (F (float_of_int sys /. float_of_int n));
     add "loadgen.cpu_busy_ratio" (F (gcpu /. wall));
     add "server.cpu_busy_ratio" (F (scpu /. wall));
     add "server.cpu_ns_per_op" (F (scpu *. 1e9 /. float_of_int n));
     if trace then begin
       let ok2, n2, ns2, _, _, _ = phase ~trace:true ~measure:false secs in
       add "loadgen.encode_ns_per_op" (F (Span.per st.Loadgen.enc n2));
       add "loadgen.decode_verify_ns_per_op" (F (Span.per st.Loadgen.dec n2));
       add "loadgen.wait_ns_per_op" (F (Span.per st.Loadgen.wait n2));
       add "trace.overhead_ratio"
         (F (float_of_int ok2 /. (float_of_int ns2 /. 1e9) /. ops_per_s))
     end
   with
  | () -> ()
  | exception Loadgen.Timeout -> st.Loadgen.timeouts <- st.Loadgen.timeouts + 1);
  (* shutdown, then the server's own accounting *)
  Array.iter (fun c -> Unix.close c.Loadgen.fd) conns;
  stop_server s;
  current := None;
  let stats = read_file s.stats in
  let jf k = json_num stats k in
  let requests = int_of_float (jf "requests") and responses = int_of_float (jf "responses") in
  let faults = int_of_float (jf "faults") in
  let probes = sum_rings conns (fun r -> r.Script.probes) in
  let attempted = sum_rings conns (fun r -> r.Script.attempted) in
  let failed =
    sum_rings conns (fun r -> r.Script.failed)
    + st.Loadgen.extra
    + (attempted - answered conns)
  in
  let safety = sum_rings conns (fun r -> r.Script.safety) in
  let server_ok =
    requests = responses && faults = probes
    && jf "protocol_errors" = 0. && jf "refused" = 0.
  in
  add "ok_ratio" (F (float_of_int (attempted - failed) /. float_of_int (max 1 attempted)));
  add "fail_ratio" (F (float_of_int failed /. float_of_int (max 1 attempted)));
  add "netloop.realized_batch" (F (jf "realized_batch"));
  add "netloop.bytes_in_per_op" (F (jf "bytes_in" /. float_of_int (max 1 responses)));
  add "netloop.bytes_out_per_op" (F (jf "bytes_out" /. float_of_int (max 1 responses)));
  add "netloop.protocol_errors" (F (jf "protocol_errors"));
  add "netloop.refused" (F (jf "refused"));
  add "info.server_requests" (I requests);
  add "info.server_responses" (I responses);
  add "info.server_faults" (I faults);
  add "info.probes" (I probes);
  add "info.safety_violations" (I safety);
  add "info.timeouts" (I st.Loadgen.timeouts);
  add "info.unknown_req_ids" (I st.Loadgen.extra);
  add "info.server_flags" (S (String.concat " " Script.server_flags));
  add "info.pinning"
    (S
       (match cpu_pair with
       | Some (a, b) -> Printf.sprintf "server on CPU %d, generator on CPU %d" a b
       | None -> "none (one CPU)"));
  let replay_ok =
    (not trace)
    ||
    match List.assoc_opt "server.cpu_ns_per_op" !result with
    | Some (F server_ns) -> layers workload ~seed ~seconds:(seconds /. 2.) ~server_ns add
    | _ -> false
  in
  add "attempted" (I attempted);
  add "failed" (I failed);
  add "correct" (B (safety = 0 && server_ok && replay_ok));
  emit (List.rev !result)

(* --- command line --------------------------------------------------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let get name = match opt name args with Some v -> v | None -> failwith ("missing " ^ name) in
  let flag name = List.mem name args in
  match args with
  | "socket" :: _ ->
      let workload =
        match Script.workload_of_string (get "--workload") with
        | Some w -> w
        | None -> failwith "unknown workload"
      in
      socket workload ~seed:(int_of_string (get "--seed"))
        ~seconds:(float_of_string (get "--seconds"))
        ~trace:(get "--trace" = "1") ~serve:(get "--serve") ~rundir:(get "--rundir")
        ~corrupt:(match opt "--corrupt-translate" args with Some n -> int_of_string n | None -> 0)
  | "repro-setup" :: _ ->
      let ns, cells =
        Repro.first_cell_ns ~quick:(flag "--quick") ~seed:(int_of_string (get "--seed"))
          ~jobs:(int_of_string (get "--jobs"))
      in
      emit [ ("first_cell_ns", I ns); ("cells", I cells) ]
  | "repro-trace" :: _ ->
      let jobs = int_of_string (get "--jobs") in
      let t =
        Repro.traced ~quick:(flag "--quick") ~seed:(int_of_string (get "--seed")) ~jobs
      in
      let cell_sum = List.fold_left (fun a (_, ns) -> a + ns) 0 t.Repro.cells_ns in
      emit
        (List.map (fun (id, ns) -> ("exp." ^ id ^ ".cells_s", F (float_of_int ns /. 1e9)))
           t.Repro.cells_ns
        @ [
            ("exp.reduce_render_s", F (float_of_int t.Repro.reduce_render_ns /. 1e9));
            ( "pool.busy_ratio",
              F (float_of_int cell_sum /. (float_of_int jobs *. float_of_int t.Repro.pool_wall_ns)) );
            ("traced_repro_s", F (float_of_int t.Repro.wall_ns /. 1e9));
            ("cells", I t.Repro.cells);
            ("digest", S t.Repro.digest);
          ])
  | "version" :: _ -> emit [ ("ocaml", S Sys.ocaml_version) ]
  | _ ->
      prerr_endline "usage: perfbench (socket|repro-setup|repro-trace|version) ...";
      exit 2
