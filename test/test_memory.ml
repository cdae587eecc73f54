(* Unit and property tests for the physical memory substrate (rio_memory). *)

open Rio_memory
module Cycles = Rio_sim.Cycles
module Cost_model = Rio_sim.Cost_model

let test_addr_arithmetic () =
  let a = Addr.phys_of_int 0x12345 in
  Alcotest.(check int) "pfn" 0x12 (Addr.pfn a);
  Alcotest.(check int) "offset" 0x345 (Addr.page_offset a);
  Alcotest.(check int) "of_pfn round trip" 0x12000 (Addr.to_int (Addr.of_pfn 0x12));
  Alcotest.(check bool) "aligned" true (Addr.is_page_aligned (Addr.of_pfn 7));
  Alcotest.(check bool) "unaligned" false (Addr.is_page_aligned a);
  Alcotest.(check int) "add" 0x12346 (Addr.to_int (Addr.add a 1));
  Alcotest.(check int) "line" (0x12345 / 64) (Addr.line_of a)

let test_addr_rejects_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Addr.phys_of_int: negative")
    (fun () -> ignore (Addr.phys_of_int (-1)))

let test_frame_allocator_basics () =
  let fa = Frame_allocator.create ~total_frames:4 in
  let a = Frame_allocator.alloc_exn fa in
  let b = Frame_allocator.alloc_exn fa in
  Alcotest.(check bool) "distinct" false (Addr.equal a b);
  Alcotest.(check int) "allocated" 2 (Frame_allocator.allocated fa);
  Frame_allocator.free fa a;
  Alcotest.(check int) "after free" 1 (Frame_allocator.allocated fa);
  let c = Frame_allocator.alloc_exn fa in
  Alcotest.(check bool) "LIFO recycling reuses freed frame" true (Addr.equal a c)

let test_frame_allocator_exhaustion () =
  let fa = Frame_allocator.create ~total_frames:2 in
  ignore (Frame_allocator.alloc_exn fa);
  ignore (Frame_allocator.alloc_exn fa);
  Alcotest.(check bool) "exhausted" true (Frame_allocator.alloc fa = None)

let test_frame_allocator_double_free () =
  let fa = Frame_allocator.create ~total_frames:2 in
  let a = Frame_allocator.alloc_exn fa in
  Frame_allocator.free fa a;
  Alcotest.check_raises "double free"
    (Invalid_argument "Frame_allocator.free: frame not allocated") (fun () ->
      Frame_allocator.free fa a)

let test_frame_allocator_contiguous () =
  let fa = Frame_allocator.create ~total_frames:10 in
  let a = Option.get (Frame_allocator.alloc_contiguous fa ~frames:3) in
  let b = Option.get (Frame_allocator.alloc_contiguous fa ~frames:3) in
  Alcotest.(check int) "contiguous block starts after previous" 3
    (Addr.pfn b - Addr.pfn a);
  Alcotest.(check bool) "cannot overallocate" true
    (Frame_allocator.alloc_contiguous fa ~frames:5 = None)

let test_phys_mem_read_write () =
  let m = Phys_mem.create () in
  let addr = Addr.phys_of_int 100 in
  Phys_mem.write m addr (Bytes.of_string "hello");
  Alcotest.(check string) "read back" "hello"
    (Bytes.to_string (Phys_mem.read m addr 5));
  Alcotest.(check string) "zero fill" "\000\000"
    (Bytes.to_string (Phys_mem.read m (Addr.phys_of_int 0) 2))

let test_phys_mem_cross_page () =
  let m = Phys_mem.create () in
  let addr = Addr.phys_of_int (Addr.page_size - 3) in
  Phys_mem.write m addr (Bytes.of_string "abcdef");
  Alcotest.(check string) "crosses frame boundary" "abcdef"
    (Bytes.to_string (Phys_mem.read m addr 6));
  Alcotest.(check int) "two frames touched" 2 (Phys_mem.touched_frames m)

let test_phys_mem_u64 () =
  let m = Phys_mem.create () in
  let addr = Addr.phys_of_int 4090 in
  (* crosses a page *)
  Phys_mem.write_u64 m addr 0x1122334455667788L;
  Alcotest.(check int64) "u64 round trip" 0x1122334455667788L (Phys_mem.read_u64 m addr)

let test_phys_mem_fill () =
  let m = Phys_mem.create () in
  let addr = Addr.phys_of_int 10 in
  Phys_mem.fill m addr 8 'x';
  Alcotest.(check string) "filled" "xxxxxxxx" (Bytes.to_string (Phys_mem.read m addr 8))

let make_coherency coherent =
  let clock = Cycles.create () in
  let c =
    Coherency.create ~coherent ~cost:Cost_model.default ~clock
  in
  (c, clock)

let test_coherency_noncoherent_staleness () =
  let c, _ = make_coherency false in
  let a = Addr.phys_of_int 0x1000 in
  Alcotest.(check bool) "fresh before write" true (Coherency.walker_sees_fresh c a);
  Coherency.cpu_write c a;
  Alcotest.(check bool) "stale after write" false (Coherency.walker_sees_fresh c a);
  Alcotest.(check int) "one dirty line" 1 (Coherency.dirty_lines c);
  Coherency.flush_line c a;
  Alcotest.(check bool) "fresh after flush" true (Coherency.walker_sees_fresh c a);
  Alcotest.(check int) "clean" 0 (Coherency.dirty_lines c)

let test_coherency_coherent_always_fresh () =
  let c, clock = make_coherency true in
  let a = Addr.phys_of_int 0x2000 in
  Coherency.cpu_write c a;
  Alcotest.(check bool) "coherent sees writes" true (Coherency.walker_sees_fresh c a);
  let before = Cycles.now clock in
  Coherency.flush_line c a;
  Alcotest.(check int) "flush free when coherent" before (Cycles.now clock)

let test_coherency_sync_mem_costs () =
  let cm = Cost_model.default in
  (* Non-coherent: barrier + flush + barrier (Figure 11 sync_mem). *)
  let c, clock = make_coherency false in
  let a = Addr.phys_of_int 0x40 in
  Coherency.cpu_write c a;
  Coherency.sync_mem c a;
  Alcotest.(check int) "non-coherent sync cost"
    ((2 * cm.Cost_model.barrier) + cm.Cost_model.cacheline_flush)
    (Cycles.now clock);
  (* Coherent: single barrier. *)
  let c2, clock2 = make_coherency true in
  Coherency.sync_mem c2 a;
  Alcotest.(check int) "coherent sync cost" cm.Cost_model.barrier (Cycles.now clock2)

let test_coherency_line_granularity () =
  let c, _ = make_coherency false in
  let a = Addr.phys_of_int 0x100 in
  let same_line = Addr.phys_of_int 0x13f in
  let other_line = Addr.phys_of_int 0x140 in
  Coherency.cpu_write c a;
  Coherency.cpu_write c same_line;
  Alcotest.(check int) "same line collapses" 1 (Coherency.dirty_lines c);
  Coherency.cpu_write c other_line;
  Alcotest.(check int) "distinct lines tracked" 2 (Coherency.dirty_lines c);
  Coherency.flush_line c same_line;
  Alcotest.(check bool) "flushing by any addr in line works" true
    (Coherency.walker_sees_fresh c a)

let test_dma_buffer_alloc_free () =
  let fa = Frame_allocator.create ~total_frames:8 in
  let b = Option.get (Dma_buffer.alloc fa ~size:100) in
  Alcotest.(check bool) "pinned at alloc" true b.Dma_buffer.pinned;
  Alcotest.(check int) "one frame for 100B" 1 (Dma_buffer.frames b);
  Alcotest.(check int) "frame consumed" 1 (Frame_allocator.allocated fa);
  Dma_buffer.free fa b;
  Alcotest.(check int) "frames returned" 0 (Frame_allocator.allocated fa)

let test_dma_buffer_multi_frame () =
  let fa = Frame_allocator.create ~total_frames:8 in
  let b = Option.get (Dma_buffer.alloc fa ~size:9000) in
  Alcotest.(check int) "9000B spans 3 frames" 3 (Dma_buffer.frames b);
  Dma_buffer.free fa b;
  Alcotest.(check int) "all returned" 0 (Frame_allocator.allocated fa)

let test_dma_buffer_sub_page () =
  let fa = Frame_allocator.create ~total_frames:2 in
  let bufs = Option.get (Dma_buffer.alloc_sub_page fa ~offsets:[ 0; 2048 ] ~size:1500) in
  (match bufs with
  | [ x; y ] ->
      Alcotest.(check int) "share a frame" (Addr.pfn x.Dma_buffer.base)
        (Addr.pfn y.Dma_buffer.base);
      Alcotest.(check int) "second at offset" 2048 (Addr.page_offset y.Dma_buffer.base)
  | _ -> Alcotest.fail "expected two buffers");
  Alcotest.(check int) "one frame consumed" 1 (Frame_allocator.allocated fa);
  Dma_buffer.free_shared fa bufs;
  Alcotest.(check int) "frame returned once" 0 (Frame_allocator.allocated fa)

let test_dma_buffer_sub_page_overlap_rejected () =
  let fa = Frame_allocator.create ~total_frames:2 in
  Alcotest.check_raises "overlap"
    (Invalid_argument "Dma_buffer.alloc_sub_page: overlapping or out of page")
    (fun () -> ignore (Dma_buffer.alloc_sub_page fa ~offsets:[ 0; 1000 ] ~size:1500))

let prop_phys_mem_roundtrip =
  QCheck.Test.make ~name:"phys_mem write/read round trip at any address" ~count:200
    QCheck.(pair (int_bound 100_000) (string_of_size Gen.(1 -- 300)))
    (fun (addr, data) ->
      QCheck.assume (String.length data > 0);
      let m = Phys_mem.create () in
      let a = Addr.phys_of_int addr in
      Phys_mem.write m a (Bytes.of_string data);
      Bytes.to_string (Phys_mem.read m a (String.length data)) = data)

let prop_frame_allocator_no_double_alloc =
  QCheck.Test.make ~name:"allocator never hands out a live frame twice" ~count:100
    QCheck.(list (int_bound 2))
    (fun ops ->
      let fa = Frame_allocator.create ~total_frames:64 in
      let live = Hashtbl.create 16 in
      let stack = ref [] in
      List.for_all
        (fun op ->
          if op < 2 then begin
            match Frame_allocator.alloc fa with
            | None -> true
            | Some a ->
                let fresh = not (Hashtbl.mem live (Addr.pfn a)) in
                Hashtbl.replace live (Addr.pfn a) ();
                stack := a :: !stack;
                fresh
          end
          else begin
            match !stack with
            | [] -> true
            | a :: rest ->
                stack := rest;
                Hashtbl.remove live (Addr.pfn a);
                Frame_allocator.free fa a;
                true
          end)
        ops)

(* Differential check against the list + Hashtbl allocator kept in
   test/frame_allocator_list.ml: the same script of allocs, contiguous
   allocs and frees (of handed-out frames, which may double-free, of
   arbitrary pfns on either side of [0, total), and of unaligned
   addresses) must produce the same addresses, [None]s, exceptions and
   [allocated] counts at every step. *)
type fa_op =
  | Alloc
  | Contig of int
  | Free_handed of int
  | Free_pfn of int
  | Free_unaligned

let fa_op_gen ~total =
  QCheck.Gen.(
    frequency
      [ (6, return Alloc);
        (2, map (fun n -> Contig n) (int_range (-1) 6));
        (6, map (fun i -> Free_handed i) nat);
        (1, map (fun p -> Free_pfn p) (int_range (-3) (total + 3)));
        (1, return Free_unaligned) ])

let fa_op_print = function
  | Alloc -> "alloc"
  | Contig n -> Printf.sprintf "contig %d" n
  | Free_handed i -> Printf.sprintf "free_handed %d" i
  | Free_pfn p -> Printf.sprintf "free_pfn %d" p
  | Free_unaligned -> "free_unaligned"

let prop_frame_allocator_matches_oracle =
  let gen =
    QCheck.Gen.(
      int_range 1 40 >>= fun total ->
      map (fun ops -> (total, ops)) (list_size (int_range 0 200) (fa_op_gen ~total)))
  in
  let print (total, ops) =
    Printf.sprintf "total=%d [%s]" total (String.concat "; " (List.map fa_op_print ops))
  in
  QCheck.Test.make ~name:"bitset allocator matches the list+Hashtbl oracle" ~count:500
    (QCheck.make ~print gen)
    (fun (total, ops) ->
      let module O = Frame_allocator_list in
      let fa = Frame_allocator.create ~total_frames:total in
      let oa = O.create ~total_frames:total in
      let handed = ref [||] in
      let observe f =
        match f () with
        | Some a ->
            handed := Array.append !handed [| a |];
            Printf.sprintf "some %d" (Addr.to_int a)
        | None -> "none"
        | exception Invalid_argument m -> "invalid_arg " ^ m
      in
      let unit f =
        match f () with () -> "ok" | exception Invalid_argument m -> "invalid_arg " ^ m
      in
      List.for_all
        (fun op ->
          let got, want =
            match op with
            | Alloc ->
                let g = observe (fun () -> Frame_allocator.alloc fa) in
                (g, observe (fun () -> O.alloc oa))
            | Contig frames ->
                let g = observe (fun () -> Frame_allocator.alloc_contiguous fa ~frames) in
                (g, observe (fun () -> O.alloc_contiguous oa ~frames))
            | Free_handed i ->
                let n = Array.length !handed in
                if n = 0 then ("ok", "ok")
                else
                  let a = !handed.(i mod n) in
                  (unit (fun () -> Frame_allocator.free fa a), unit (fun () -> O.free oa a))
            | Free_pfn p ->
                let a = Addr.of_pfn p in
                (unit (fun () -> Frame_allocator.free fa a), unit (fun () -> O.free oa a))
            | Free_unaligned ->
                let a = Addr.phys_of_int 1 in
                (unit (fun () -> Frame_allocator.free fa a), unit (fun () -> O.free oa a))
          in
          got = want && Frame_allocator.allocated fa = O.allocated oa)
        ops)

let test_frame_allocator_free_out_of_range () =
  let fa = Frame_allocator.create ~total_frames:4 in
  let oob = Invalid_argument "Frame_allocator.free: frame not allocated" in
  Alcotest.check_raises "pfn = total" oob (fun () -> Frame_allocator.free fa (Addr.of_pfn 4));
  Alcotest.check_raises "pfn beyond total" oob (fun () ->
      Frame_allocator.free fa (Addr.of_pfn 1000));
  Alcotest.check_raises "negative pfn" oob (fun () -> Frame_allocator.free fa (Addr.of_pfn (-1)));
  Alcotest.(check int) "nothing allocated" 0 (Frame_allocator.allocated fa)

let () =
  Alcotest.run "rio_memory"
    [
      ( "addr",
        [
          Alcotest.test_case "arithmetic" `Quick test_addr_arithmetic;
          Alcotest.test_case "rejects negative" `Quick test_addr_rejects_negative;
        ] );
      ( "frame_allocator",
        [
          Alcotest.test_case "alloc/free/recycle" `Quick test_frame_allocator_basics;
          Alcotest.test_case "exhaustion" `Quick test_frame_allocator_exhaustion;
          Alcotest.test_case "double free detected" `Quick test_frame_allocator_double_free;
          Alcotest.test_case "contiguous" `Quick test_frame_allocator_contiguous;
          Alcotest.test_case "free out of range" `Quick test_frame_allocator_free_out_of_range;
          QCheck_alcotest.to_alcotest prop_frame_allocator_no_double_alloc;
          QCheck_alcotest.to_alcotest prop_frame_allocator_matches_oracle;
        ] );
      ( "phys_mem",
        [
          Alcotest.test_case "read/write" `Quick test_phys_mem_read_write;
          Alcotest.test_case "cross page" `Quick test_phys_mem_cross_page;
          Alcotest.test_case "u64" `Quick test_phys_mem_u64;
          Alcotest.test_case "fill" `Quick test_phys_mem_fill;
          QCheck_alcotest.to_alcotest prop_phys_mem_roundtrip;
        ] );
      ( "coherency",
        [
          Alcotest.test_case "non-coherent staleness" `Quick
            test_coherency_noncoherent_staleness;
          Alcotest.test_case "coherent always fresh" `Quick
            test_coherency_coherent_always_fresh;
          Alcotest.test_case "sync_mem costs" `Quick test_coherency_sync_mem_costs;
          Alcotest.test_case "line granularity" `Quick test_coherency_line_granularity;
        ] );
      ( "dma_buffer",
        [
          Alcotest.test_case "alloc/free" `Quick test_dma_buffer_alloc_free;
          Alcotest.test_case "multi frame" `Quick test_dma_buffer_multi_frame;
          Alcotest.test_case "sub page" `Quick test_dma_buffer_sub_page;
          Alcotest.test_case "sub page overlap rejected" `Quick
            test_dma_buffer_sub_page_overlap_rejected;
        ] );
    ]
