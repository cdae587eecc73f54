(* [run_domains] drives a flat task array with a fixed pool of [jobs]
   domains and per-worker work queues: the array is split into [jobs]
   contiguous slices, each drained through an atomic cursor. A worker
   first drains its own slice, then steals from whichever victim has
   the most work left. Every claim is a fetch-and-add, so each task
   runs exactly once no matter which worker claims it, and every result
   lands in its task's slot - the output order is the input order
   regardless of scheduling, which is what makes parallel experiment
   runs deterministic. *)

let run_domains ~jobs tasks =
  let n = Array.length tasks in
  if n = 0 then [||]
  else begin
    let w = max 1 (min jobs n) in
    let results = Array.make n None in
    let failed = Atomic.make None in
    (* worker [i] owns indices [lo i, lo (i+1)) *)
    let lo i = i * n / w in
    let cursors = Array.init w (fun i -> Atomic.make (lo i)) in
    let exec k =
      match tasks.(k) () with
      | v -> results.(k) <- Some v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set failed None (Some (e, bt)))
    in
    (* claim the next index of queue [q]; claims past the slice end just
       mean the queue is spent *)
    let claim q =
      let k = Atomic.fetch_and_add cursors.(q) 1 in
      if k < lo (q + 1) then Some k else None
    in
    let worker me =
      let running = ref true in
      while !running && Atomic.get failed = None do
        match claim me with
        | Some k -> exec k
        | None -> running := false
      done;
      (* own slice drained: steal from the fullest victim until all
         queues are spent *)
      let running = ref true in
      while !running && Atomic.get failed = None do
        let best = ref (-1) in
        let best_left = ref 0 in
        for v = 0 to w - 1 do
          let left = lo (v + 1) - Atomic.get cursors.(v) in
          if left > !best_left then begin
            best := v;
            best_left := left
          end
        done;
        if !best < 0 then running := false
        else match claim !best with Some k -> exec k | None -> ()
      done
    in
    let domains =
      Array.init (w - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
    in
    worker 0;
    Array.iter Domain.join domains;
    (match Atomic.get failed with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map (function Some v -> v | None -> assert false) results
  end

let default_jobs () = Domain.recommended_domain_count ()

let resolve_jobs jobs =
  if jobs < 0 then invalid_arg "Rio_exec.Pool.run: jobs must be >= 0";
  if jobs = 0 then default_jobs () else jobs

let run ?(jobs = 1) tasks =
  let jobs = resolve_jobs jobs in
  if jobs <= 1 || Array.length tasks <= 1 then
    (* no pool: run in index order on the calling domain *)
    Array.map (fun f -> f ()) tasks
  else run_domains ~jobs tasks

let run_list ?jobs tasks = Array.to_list (run ?jobs (Array.of_list tasks))
