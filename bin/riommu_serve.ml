(* riommu-serve: the online multi-tenant translation service.

     riommu-serve [--duration S] [--jobs N] [--shards N] [--tenants N]
                  [--flows N] [--interval S] [--seed SEED] [--no-rcache]
                  [--capacity N] [--policy P] [--sg-max N] [--stats FILE]
     riommu-serve --listen ADDR [--batch N] [--window N] [--max-conns N]
                  [--shards N] [--tenants N] ... [--stats FILE]

   Without --listen: the deterministic simulated twin. Durations are
   SIMULATED seconds (the engine runs on the calibrated cycle clock,
   DESIGN.md §4); wall-clock only appears in the stderr progress lines
   and the stats JSON. stdout — the final summary — is a pure function
   of (seed, shards, tenants, flows, duration, interval),
   byte-identical at any --jobs: the cram suite diffs it across job
   counts.

   With --listen ADDR (unix:PATH or HOST:PORT): real-socket ingestion
   of the riommu-wire/1 protocol (DESIGN.md §14) into the same shard
   engine — serves until SIGTERM/SIGINT, then prints a transport
   summary and optionally writes riommu-serve-net/1 stats JSON.

   Either way SIGTERM/SIGINT raise the stop flag for a clean early
   shutdown (summary still printed, exit 0). *)

open Cmdliner

let policy_conv =
  let parse s =
    match Rio_domain.Shared_iotlb.policy_of_name s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
            (Printf.sprintf
               "unknown policy %S (expected shared, partitioned or quota:N)" s))
  in
  Arg.conv
    ( parse,
      fun fmt p ->
        Format.pp_print_string fmt (Rio_domain.Shared_iotlb.policy_name p) )

(* --listen mode: real-socket ingestion into the same shard engine.
   Wall-clock lives out here (the lib takes an injected now_s). *)
let run_listen ~addr ~shards:nshards ~tenants ~capacity ~policy ~rcache ~sg_max
    ~batch ~window ~max_conns ~domains ~backend ~interval ~stats_dest =
  let open Rio_serve in
  let open Rio_serve_net in
  match
    match Netloop.parse_addr addr with
    | Error m -> Error m
    | Ok a -> (
        match Readiness.backend_of_string backend with
        | Error m -> Error m
        | Ok b -> Ok (a, b))
  with
  | Error m ->
      prerr_endline ("riommu-serve: " ^ m);
      2
  | Ok (addr, backend) ->
      let shards =
        Array.init nshards (fun id ->
            Shard.create ~id ~tenants ~iotlb_capacity:capacity
              ~iotlb_policy:policy ~rcache ())
      in
      let stop = Rio_exec.Flag.create () in
      let on_signal = Sys.Signal_handle (fun _ -> Rio_exec.Flag.set stop) in
      Sys.set_signal Sys.sigterm on_signal;
      Sys.set_signal Sys.sigint on_signal;
      (* a peer that closes with responses queued must cost its
         connection (EPIPE), not the server (SIGPIPE) *)
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let cfg =
        {
          (Netloop.default_config ~addr) with
          Netloop.batch;
          window;
          sg_limit = sg_max;
          max_conns;
          domains;
          backend;
          now_s = Unix.gettimeofday;
          tick_every_s = (if interval > 0. then interval else 0.);
        }
      in
      let t0 = Unix.gettimeofday () in
      let last_ops = ref 0 in
      let last_t = ref t0 in
      (* Window percentiles for the progress line: fold each shard's
         translate histogram interval into a scratch histogram —
         satellite use of Histogram.interval_into on the live path. *)
      let win = Histogram.create () in
      let on_tick (ns : Netloop.stats) =
        let now = Unix.gettimeofday () in
        let ops = Array.fold_left (fun a s -> a + Shard.total_ops s) 0 shards in
        let dt = now -. !last_t in
        let rate = if dt > 0. then float_of_int (ops - !last_ops) /. dt else 0. in
        Array.iter
          (fun s -> Histogram.interval_into (Shard.hist s Shard.Translate) ~into:win)
          shards;
        Printf.eprintf
          "riommu-serve: conns %d  reqs %d  ops %d  %.0f ops/s  win-p99 %d cyc\n%!"
          (ns.Netloop.accepted - ns.Netloop.closed)
          ns.Netloop.requests ops rate
          (Histogram.quantile win 0.99);
        Histogram.reset win;
        last_ops := ops;
        last_t := now
      in
      Printf.eprintf
        "riommu-serve: listening on %s (%d shards, batch %d, window %d, \
         backend %s, domains %d)\n\
         %!"
        (Netloop.addr_to_string addr) nshards batch window
        (Readiness.backend_name backend)
        domains;
      (match Netloop.serve ~stop ~on_tick ~shards cfg with
      | exception Unix.Unix_error (e, fn, arg) ->
          Printf.eprintf "riommu-serve: %s(%s): %s\n" fn arg (Unix.error_message e);
          1
      | ns ->
          let wall_s = Unix.gettimeofday () -. t0 in
          let ops = Array.fold_left (fun a s -> a + Shard.total_ops s) 0 shards in
          let faults = Array.fold_left (fun a s -> a + Shard.faults s) 0 shards in
          let realized =
            if ns.Netloop.batch_flushes > 0 then
              float_of_int ns.Netloop.responses
              /. float_of_int ns.Netloop.batch_flushes
            else 0.
          in
          Printf.printf "riommu-serve --listen %s\n" (Netloop.addr_to_string addr);
          Printf.printf "  backend %s  domains %d  max-conns %d\n"
            ns.Netloop.backend ns.Netloop.domains ns.Netloop.max_conns_effective;
          if Array.length ns.Netloop.domain_ops > 0 then begin
            Printf.printf "  domain ops:";
            Array.iteri
              (fun e n -> Printf.printf " d%d %d" e n)
              ns.Netloop.domain_ops;
            print_newline ()
          end;
          Printf.printf "  wall %.2fs  conns %d (refused %d, protocol errors %d)\n"
            wall_s ns.Netloop.accepted ns.Netloop.refused ns.Netloop.protocol_errors;
          Printf.printf "  requests %d  responses %d  rejected %d\n"
            ns.Netloop.requests ns.Netloop.responses ns.Netloop.rejected;
          Printf.printf "  batch flushes %d (realized batch %.1f)\n"
            ns.Netloop.batch_flushes realized;
          Printf.printf "  ops:";
          for k = 0 to Shard.op_count - 1 do
            let op = Shard.op_of_index k in
            let n = Array.fold_left (fun a s -> a + Shard.ops s op) 0 shards in
            Printf.printf " %s %d" (Shard.op_name op) n
          done;
          Printf.printf "  (total %d, faults %d)\n" ops faults;
          Printf.printf "  bytes in %d out %d\n%!" ns.Netloop.bytes_in
            ns.Netloop.bytes_out;
          (match stats_dest with
          | None -> ()
          | Some dest ->
              let b = Buffer.create 4096 in
              Buffer.add_string b "{\n";
              Printf.bprintf b "  \"schema\": \"riommu-serve-net/1\",\n";
              Printf.bprintf b "  \"addr\": %S,\n" (Netloop.addr_to_string addr);
              Printf.bprintf b
                "  \"shards\": %d, \"batch\": %d, \"window\": %d,\n" nshards
                batch window;
              Printf.bprintf b
                "  \"backend\": %S, \"domains\": %d, \
                 \"max_conns_effective\": %d,\n"
                ns.Netloop.backend ns.Netloop.domains
                ns.Netloop.max_conns_effective;
              Buffer.add_string b "  \"domain_ops\": [";
              Array.iteri
                (fun e n ->
                  if e > 0 then Buffer.add_string b ", ";
                  Printf.bprintf b "%d" n)
                ns.Netloop.domain_ops;
              Buffer.add_string b "],\n";
              Printf.bprintf b "  \"wall_s\": %.6f,\n" wall_s;
              Printf.bprintf b "  \"ops\": %d,\n" ops;
              Printf.bprintf b "  \"ops_per_sec\": %.1f,\n"
                (if wall_s > 0. then float_of_int ops /. wall_s else 0.);
              Printf.bprintf b
                "  \"requests\": %d, \"responses\": %d, \"rejected\": %d,\n"
                ns.Netloop.requests ns.Netloop.responses ns.Netloop.rejected;
              Printf.bprintf b
                "  \"accepted\": %d, \"refused\": %d, \"closed\": %d, \
                 \"protocol_errors\": %d,\n"
                ns.Netloop.accepted ns.Netloop.refused ns.Netloop.closed
                ns.Netloop.protocol_errors;
              Printf.bprintf b
                "  \"batch_flushes\": %d, \"realized_batch\": %.2f,\n"
                ns.Netloop.batch_flushes realized;
              Printf.bprintf b "  \"bytes_in\": %d, \"bytes_out\": %d,\n"
                ns.Netloop.bytes_in ns.Netloop.bytes_out;
              Printf.bprintf b "  \"faults\": %d,\n" faults;
              Buffer.add_string b "  \"groups\": [\n";
              for k = 0 to Shard.op_count - 1 do
                let op = Shard.op_of_index k in
                let h = Histogram.create () in
                Array.iter
                  (fun s -> Histogram.merge_into ~dst:h (Shard.hist s op))
                  shards;
                Printf.bprintf b
                  "    { \"name\": \"net/%s\", \"iters\": %d, \
                   \"p50_cycles\": %d, \"p99_cycles\": %d, \"p999_cycles\": \
                   %d, \"max_cycles\": %d }%s\n"
                  (Shard.op_name op) (Histogram.count h)
                  (Histogram.quantile h 0.5)
                  (Histogram.quantile h 0.99)
                  (Histogram.quantile h 0.999)
                  (Histogram.max_recorded h)
                  (if k < Shard.op_count - 1 then "," else "")
              done;
              Buffer.add_string b "  ],\n";
              Server.bprint_tenants b (Server.tenant_stats_of shards ~tenants);
              Buffer.add_string b "\n}\n";
              let json = Buffer.contents b in
              if dest = "-" then prerr_string json
              else begin
                let oc = open_out dest in
                output_string oc json;
                close_out oc
              end);
          0)

let serve_term =
  let open Rio_serve in
  let dflt = Server.default_config in
  let duration =
    Arg.(
      value
      & opt float dflt.Server.duration_s
      & info [ "duration"; "d" ] ~docv:"S" ~doc:"Simulated seconds to serve.")
  in
  let interval =
    Arg.(
      value
      & opt float dflt.Server.interval_s
      & info [ "interval" ] ~docv:"S"
          ~doc:"Snapshot cadence in simulated seconds.")
  in
  let shards =
    Arg.(
      value
      & opt int dflt.Server.shards
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Shard count — the determinism unit. Results depend on this, \
             never on $(b,--jobs).")
  in
  let jobs =
    Arg.(
      value
      & opt int dflt.Server.jobs
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains driving the shards: 1 sequential, 0 one per \
             core. Output is byte-identical at every level.")
  in
  let tenants =
    Arg.(
      value
      & opt int dflt.Server.tenants
      & info [ "tenants" ] ~docv:"N" ~doc:"Tenant domains per shard.")
  in
  let flows =
    Arg.(
      value
      & opt int dflt.Server.flows_per_tenant
      & info [ "flows" ] ~docv:"N" ~doc:"Flow slots per tenant.")
  in
  let seed =
    Arg.(
      value
      & opt int dflt.Server.seed
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Root seed; every connection derives its own stream from it.")
  in
  let no_rcache =
    Arg.(
      value & flag
      & info [ "no-rcache" ]
          ~doc:"Disable the per-tenant IOVA magazine caches (on by default).")
  in
  let capacity =
    Arg.(
      value
      & opt int dflt.Server.iotlb_capacity
      & info [ "capacity" ] ~docv:"N" ~doc:"Per-shard IOTLB entries.")
  in
  let policy =
    Arg.(
      value
      & opt policy_conv dflt.Server.iotlb_policy
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:"IOTLB policy: shared, partitioned or quota:N.")
  in
  let sg_max =
    Arg.(
      value
      & opt int dflt.Server.sg_max
      & info [ "sg-max" ] ~docv:"N"
          ~doc:"Scatter-gather segments per request (larger objects truncate).")
  in
  let stats =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats" ] ~docv:"FILE"
          ~doc:
            "Write the final stats JSON (bench-compatible schema, \
             riommu-serve/1) to $(docv); $(b,-) for stderr.")
  in
  let listen =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Serve the riommu-wire/1 protocol on $(docv) (unix:PATH, \
             tcp:HOST:PORT or HOST:PORT) until SIGTERM, instead of running \
             the simulated load. $(b,--duration), $(b,--jobs), $(b,--flows) \
             and $(b,--seed) are ignored; $(b,--interval) becomes the \
             wall-clock progress cadence.")
  in
  let batch =
    Arg.(
      value & opt int 64
      & info [ "batch" ] ~docv:"N"
          ~doc:"Dispatch batch slots per shard ($(b,--listen) mode).")
  in
  let window =
    Arg.(
      value & opt int 128
      & info [ "window" ] ~docv:"N"
          ~doc:
            "Per-connection in-flight request cap — the backpressure window \
             ($(b,--listen) mode).")
  in
  let max_conns =
    Arg.(
      value & opt int 64
      & info [ "max-conns" ] ~docv:"N"
          ~doc:"Connection cap; accepts beyond it are refused ($(b,--listen) \
                mode).")
  in
  let domains =
    Arg.(
      value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Shard executor domains ($(b,--listen) mode): 1 executes on the \
             IO thread (the classic loop); N>1 runs N executor domains \
             connected by SPSC rings (clamped to the shard count).")
  in
  let backend =
    Arg.(
      value
      & opt string
          (Rio_serve_net.Readiness.backend_name
             Rio_serve_net.Readiness.default_backend)
      & info [ "backend" ] ~docv:"B"
          ~doc:
            "Readiness backend ($(b,--listen) mode): $(b,poll) (no fd cap, \
             no per-wakeup set rebuild; the default) or \
             $(b,select) (portable, FD_SETSIZE-capped).")
  in
  let run duration interval shards jobs tenants flows seed no_rcache capacity
      policy sg_max stats listen batch window max_conns domains backend =
    match listen with
    | Some addr ->
        run_listen ~addr ~shards ~tenants ~capacity ~policy
          ~rcache:(not no_rcache) ~sg_max ~batch ~window ~max_conns ~domains
          ~backend ~interval ~stats_dest:stats
    | None ->
    let cfg =
      {
        Server.shards;
        jobs;
        tenants;
        flows_per_tenant = flows;
        duration_s = duration;
        interval_s = interval;
        seed;
        rcache = not no_rcache;
        iotlb_capacity = capacity;
        iotlb_policy = policy;
        sg_max;
      }
    in
    let stop = Rio_exec.Flag.create () in
    let on_signal = Sys.Signal_handle (fun _ -> Rio_exec.Flag.set stop) in
    Sys.set_signal Sys.sigterm on_signal;
    Sys.set_signal Sys.sigint on_signal;
    let t0 = Unix.gettimeofday () in
    let last_ops = ref 0 in
    let last_t = ref t0 in
    let on_snapshot (s : Server.snapshot) =
      let now = Unix.gettimeofday () in
      let ops = Array.fold_left ( + ) 0 s.Server.ops in
      let dt = now -. !last_t in
      let rate = if dt > 0. then float_of_int (ops - !last_ops) /. dt else 0. in
      Printf.eprintf
        "riommu-serve: tick %d  sim %.2fs  ops %d  %.0f ops/s (wall)\n%!"
        s.Server.tick s.Server.virtual_s ops rate;
      last_ops := ops;
      last_t := now
    in
    match Server.run ~stop ~on_snapshot cfg with
    | exception Invalid_argument m ->
        prerr_endline ("riommu-serve: " ^ m);
        2
    | report ->
        let wall_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
        print_string (Server.render_summary report);
        (match stats with
        | None -> ()
        | Some dest ->
            let words_per_op = Server.alloc_probe () in
            let json = Server.render_json report ~wall_ns ~words_per_op in
            if dest = "-" then prerr_string json
            else begin
              let oc = open_out dest in
              output_string oc json;
              close_out oc
            end);
        0
  in
  Term.(
    const run $ duration $ interval $ shards $ jobs $ tenants $ flows $ seed
    $ no_rcache $ capacity $ policy $ sg_max $ stats $ listen $ batch $ window
    $ max_conns $ domains $ backend)

let () =
  let doc = "online multi-tenant IOMMU translation service (simulated)" in
  let info = Cmd.info "riommu-serve" ~version:"1.0.0" ~doc in
  exit (Cmd.eval' (Cmd.v info serve_term))
