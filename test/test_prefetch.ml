(* Tests for the §5.4 prefetcher study (rio_prefetch): traces,
   predictors, and the paper's comparative findings. *)

module Trace = Rio_prefetch.Trace
module Evaluate = Rio_prefetch.Evaluate
module Markov = Rio_prefetch.Markov
module Recency = Rio_prefetch.Recency
module Distance = Rio_prefetch.Distance
module Riotlb_predictor = Rio_prefetch.Riotlb_predictor

(* {1 Traces} *)

let test_cyclic_trace_shape () =
  let t = Trace.cyclic ~burst:4 ~ring_size:8 ~packets:32 () in
  Alcotest.(check int) "accesses = packets" 32 (Trace.accesses t);
  Alcotest.(check int) "pages = ring slots" 8 (Trace.pages t);
  Alcotest.(check int) "3 events per packet" (3 * 32) (Array.length t)

let test_cyclic_trace_balanced () =
  let t = Trace.cyclic ~burst:8 ~ring_size:16 ~packets:64 () in
  let maps = ref 0 and unmaps = ref 0 in
  Array.iter
    (function
      | Trace.Map _ -> incr maps
      | Trace.Unmap _ -> incr unmaps
      | Trace.Access _ -> ())
    t;
  Alcotest.(check int) "maps = unmaps" !maps !unmaps

let test_linux_trace_window () =
  let t = Trace.linux_ring ~ring_size:64 ~packets:1_000 () in
  (* two IOVAs per packet *)
  Alcotest.(check int) "2 accesses per packet" 2_000 (Trace.accesses t);
  (* the live window stays bounded: replaying must never access an
     unmapped page *)
  let mapped = Hashtbl.create 256 in
  let ok = ref true in
  let live = ref 0 and max_live = ref 0 in
  Array.iter
    (function
      | Trace.Map p ->
          Hashtbl.replace mapped p ();
          incr live;
          if !live > !max_live then max_live := !live
      | Trace.Unmap p ->
          Hashtbl.remove mapped p;
          decr live
      | Trace.Access p -> if not (Hashtbl.mem mapped p) then ok := false)
    t;
  Alcotest.(check bool) "accesses always mapped" true !ok;
  Alcotest.(check bool) "window bounded ~2x ring" true (!max_live <= 2 * 64 + 64)

(* {1 Predictor units} *)

let test_markov_learns_successors () =
  let p = Markov.create ~history:16 in
  List.iter (Markov.observe p) [ 1; 2; 3; 1; 2; 3; 1 ];
  Alcotest.(check bool) "2 follows 1" true (List.mem 2 (Markov.predict p 1));
  Alcotest.(check bool) "3 follows 2" true (List.mem 3 (Markov.predict p 2))

let test_markov_eviction () =
  let p = Markov.create ~history:2 in
  List.iter (Markov.observe p) [ 1; 2; 3; 4 ];
  (* table bounded at 2 entries: early pages evicted *)
  Alcotest.(check (list int)) "evicted" [] (Markov.predict p 1)

let test_markov_invalidate () =
  let p = Markov.create ~history:16 in
  List.iter (Markov.observe p) [ 1; 2; 1; 2 ];
  Markov.invalidate p 2;
  Alcotest.(check (list int)) "successor dropped" [] (Markov.predict p 1)

let test_recency_neighbours () =
  let p = Recency.create ~history:16 in
  List.iter (Recency.observe p) [ 10; 20; 30 ];
  (* stack (MRU first): 30 20 10; neighbours of 20 are 30 and 10 *)
  let preds = Recency.predict p 20 in
  Alcotest.(check bool) "predicts stack neighbours" true
    (List.mem 30 preds && List.mem 10 preds)

let test_recency_bounded () =
  let p = Recency.create ~history:3 in
  List.iter (Recency.observe p) [ 1; 2; 3; 4 ];
  Alcotest.(check (list int)) "oldest evicted" [] (Recency.predict p 1)

let test_distance_learns_strides () =
  let p = Distance.create ~history:16 in
  (* descending stride -1: 9 8 7 6 *)
  List.iter (Distance.observe p) [ 9; 8; 7; 6 ];
  Alcotest.(check bool) "predicts next stride" true (List.mem 5 (Distance.predict p 6))

let test_riotlb_predicts_next_slot () =
  let p = Riotlb_predictor.create ~history:2 in
  Riotlb_predictor.set_ring_size p 8;
  Riotlb_predictor.observe p 6;
  Alcotest.(check (list int)) "next" [ 7 ] (Riotlb_predictor.predict p 6);
  Alcotest.(check (list int)) "wraps" [ 0 ] (Riotlb_predictor.predict p 7)

(* {1 The paper's findings (§5.4)} *)

let ring = 128

let linux_trace = lazy (Trace.linux_ring ~ring_size:ring ~packets:6_000 ())
let cyclic_trace = lazy (Trace.cyclic ~ring_size:ring ~packets:6_000 ())

let hit m ~history ~retain =
  (Evaluate.run m ~history ~retain_invalidated:retain (Lazy.force linux_trace))
    .Evaluate.hit_rate

let test_baselines_ineffective () =
  List.iter
    (fun ((module P : Rio_prefetch.Prefetcher.S) as m) ->
      Alcotest.(check bool)
        (Printf.sprintf "baseline %s ineffective" P.name)
        true
        (hit m ~history:(8 * ring) ~retain:false < 0.55))
    [ (module Markov); (module Recency) ]

let test_markov_needs_history_beyond_ring () =
  let small = hit (module Markov) ~history:ring ~retain:true in
  let large = hit (module Markov) ~history:(8 * ring) ~retain:true in
  Alcotest.(check bool)
    (Printf.sprintf "small history useless (%.2f)" small)
    true (small < 0.1);
  Alcotest.(check bool)
    (Printf.sprintf "large history predicts most (%.2f)" large)
    true (large > 0.6)

let test_distance_stays_ineffective () =
  let best = hit (module Distance) ~history:(8 * ring) ~retain:true in
  let markov = hit (module Markov) ~history:(8 * ring) ~retain:true in
  Alcotest.(check bool)
    (Printf.sprintf "distance (%.2f) below markov (%.2f)" best markov)
    true (best < markov)

let test_riotlb_two_entries_near_perfect () =
  let r = Evaluate.run_riotlb ~ring_size:ring (Lazy.force cyclic_trace) in
  Alcotest.(check bool)
    (Printf.sprintf "riotlb hit rate %.2f > 0.9" r.Evaluate.hit_rate)
    true
    (r.Evaluate.hit_rate > 0.9)

let prop_predictions_respect_mapping =
  QCheck.Test.make ~name:"credited predictions are always mapped pages" ~count:20
    QCheck.(int_range 1 1000)
    (fun seed ->
      ignore seed;
      (* run the evaluator with a predictor that wildly guesses; the
         mapped-check must keep hits <= accesses and never crash *)
      let module Wild = struct
        type t = unit

        let name = "wild"
        let create ~history = ignore history
        let observe () _ = ()
        let invalidate () _ = ()
        let predict () page = [ page + 1; page - 1; 0; max_int / 2 ]
      end in
      let t = Trace.cyclic ~ring_size:32 ~packets:200 () in
      let r = Evaluate.run (module Wild) ~history:1 ~retain_invalidated:true t in
      r.Evaluate.hits <= r.Evaluate.accesses)

(* Differential check against the whole-table Markov kept in
   test/markov_scan.ml: random observe/invalidate scripts over a few
   pages at a history small enough to force eviction (and re-insertion
   of invalidated keys) must leave every page's [predict] list, order
   included, identical after every step. *)
let prop_markov_matches_scan_oracle =
  let pages = 10 in
  let op = QCheck.Gen.(pair (int_bound 3) (int_bound (pages - 1))) in
  let gen = QCheck.Gen.(pair (int_range 1 6) (list_size (int_range 0 300) op)) in
  let print (history, ops) =
    Printf.sprintf "history=%d [%s]" history
      (String.concat "; "
         (List.map
            (fun (k, p) -> Printf.sprintf "%s %d" (if k = 0 then "invalidate" else "observe") p)
            ops))
  in
  QCheck.Test.make ~name:"reverse-indexed markov matches the whole-table scan" ~count:500
    (QCheck.make ~print gen)
    (fun (history, ops) ->
      let m = Markov.create ~history and o = Markov_scan.create ~history in
      List.for_all
        (fun (k, p) ->
          if k = 0 then begin
            Markov.invalidate m p;
            Markov_scan.invalidate o p
          end
          else begin
            Markov.observe m p;
            Markov_scan.observe o p
          end;
          List.for_all
            (fun q -> Markov.predict m q = Markov_scan.predict o q)
            (List.init pages Fun.id))
        ops)

let () =
  Alcotest.run "rio_prefetch"
    [
      ( "traces",
        [
          Alcotest.test_case "cyclic shape" `Quick test_cyclic_trace_shape;
          Alcotest.test_case "cyclic balanced" `Quick test_cyclic_trace_balanced;
          Alcotest.test_case "linux trace window" `Quick test_linux_trace_window;
        ] );
      ( "predictors",
        [
          Alcotest.test_case "markov successors" `Quick test_markov_learns_successors;
          Alcotest.test_case "markov eviction" `Quick test_markov_eviction;
          Alcotest.test_case "markov invalidate" `Quick test_markov_invalidate;
          Alcotest.test_case "recency neighbours" `Quick test_recency_neighbours;
          Alcotest.test_case "recency bounded" `Quick test_recency_bounded;
          Alcotest.test_case "distance strides" `Quick test_distance_learns_strides;
          Alcotest.test_case "riotlb next slot" `Quick test_riotlb_predicts_next_slot;
          QCheck_alcotest.to_alcotest prop_predictions_respect_mapping;
          QCheck_alcotest.to_alcotest prop_markov_matches_scan_oracle;
        ] );
      ( "paper_findings",
        [
          Alcotest.test_case "baselines ineffective" `Quick test_baselines_ineffective;
          Alcotest.test_case "markov needs history > ring" `Quick
            test_markov_needs_history_beyond_ring;
          Alcotest.test_case "distance ineffective" `Quick test_distance_stays_ineffective;
          Alcotest.test_case "riotlb near-perfect with 2 entries" `Quick
            test_riotlb_two_entries_near_perfect;
        ] );
    ]
