(* Sampling profile of the paper reproduction. Runs every Registry plan
   in-process at --jobs 1 under ITIMER_PROF; each SIGPROF records the
   OCaml call stack. Prints self and inclusive shares per function, then
   the md5 of the output [riommu-cli all] would print.

     dune exec bench/simprof.exe -- [--seed 42] [--quick] [--top 40] [--us 5000]
       [--callers FUNCTION] [--only EXPERIMENT]

   --callers adds a table of the frames that call FUNCTION, by share of
   all samples (a recursive caller counts once per sample); --only runs
   one experiment's plan instead of all of them. *)

module Exp = Rio_experiments.Exp
module Registry = Rio_experiments.Registry

let self = Hashtbl.create 256
let incl = Hashtbl.create 256
let callers = Hashtbl.create 64
let focus = ref ""
let samples = ref 0
let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

(* Frame names, innermost first, without the handler's own frames. *)
let frames stack =
  match Printexc.backtrace_slots stack with
  | None -> []
  | Some slots ->
      Array.to_list slots
      |> List.filter_map Printexc.Slot.name
      |> List.filter (fun n -> not (String.starts_with ~prefix:"Dune__exe__Simprof" n))

let on_sigprof _ =
  match frames (Printexc.get_callstack 256) with
  | [] -> ()
  | top :: _ as fs ->
      incr samples;
      bump self top;
      List.iter (bump incl) (List.sort_uniq compare fs);
      let rec up acc = function
        | f :: (c :: _ as rest) -> up (if f = !focus then c :: acc else acc) rest
        | [ _ ] | [] -> acc
      in
      List.iter (bump callers) (List.sort_uniq compare (up [] fs))

let () =
  let seed = ref 42 and quick = ref false and top = ref 40 and us = ref 5000 in
  let only = ref "" in
  Arg.parse
    [ ("--seed", Arg.Set_int seed, " experiment seed (default 42)");
      ("--quick", Arg.Set quick, " the --quick plans");
      ("--top", Arg.Set_int top, " rows per table (default 40)");
      ("--us", Arg.Set_int us, " sampling interval in microseconds of CPU (default 5000)");
      ("--callers", Arg.Set_string focus, " also tabulate the callers of this frame name");
      ("--only", Arg.Set_string only, " profile this experiment id alone") ]
    (fun a -> raise (Arg.Bad a)) "simprof [--seed N] [--quick] [--top N] [--us N] [--callers F] [--only ID]";
  let ids = if !only = "" then Registry.ids else [ !only ] in
  let plans = List.map (fun id -> (id, (Option.get (Registry.find_plan id)) ~quick:!quick ~seed:!seed ())) ids in
  Sys.set_signal Sys.sigprof (Sys.Signal_handle on_sigprof);
  let iv = float_of_int !us /. 1e6 in
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = iv; it_value = iv });
  let results = Exp.run_plans ~jobs:1 plans in
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.; it_value = 0. });
  let out = Buffer.create 65536 in
  List.iter (fun (_, e) -> Buffer.add_string out (Exp.render e); Buffer.add_char out '\n') results;
  let table title tbl =
    Printf.printf "%s (%d samples)\n" title !samples;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (ka, a) (kb, b) -> if a <> b then compare b a else compare ka kb)
    |> List.iteri (fun i (k, v) ->
           if i < !top then Printf.printf "  %5.1f%%  %s\n" (100. *. float v /. float (max 1 !samples)) k)
  in
  table "self" self;
  table "inclusive" incl;
  if !focus <> "" then table ("callers of " ^ !focus) callers;
  Printf.printf "digest %s\n" (Digest.to_hex (Digest.string (Buffer.contents out)))
