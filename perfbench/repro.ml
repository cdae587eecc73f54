(* The paper reproduction, driven through the public registry the way
   [riommu-cli all] drives it: every experiment's plan from
   [Registry.find_plan], all cells in one [Exp.run_plans] pool, then
   each result rendered and printed followed by a newline. *)

open Util
module Exp = Rio_experiments.Exp
module Registry = Rio_experiments.Registry

let plans ~quick ~seed =
  List.map
    (fun id ->
      let plan = Option.get (Registry.find_plan id) in
      (id, plan ~quick ~seed ()))
    Registry.ids

exception Stop

(* The instant the first cell starts, as CLOCK_MONOTONIC nanoseconds,
   and the number of cells: every cell is replaced by one that stamps
   (first caller only) and aborts, so the pool quiesces at once. *)
let first_cell_ns ~quick ~seed ~jobs =
  let stamp = Atomic.make 0 in
  let wrap (id, Exp.Plan { cells; reduce }) =
    let cells =
      Array.map
        (fun _cell () ->
          ignore (Atomic.compare_and_set stamp 0 (now_ns ()) : bool);
          raise Stop)
        cells
    in
    (id, Exp.Plan { cells; reduce })
  in
  let plans = plans ~quick ~seed in
  (try ignore (Exp.run_plans ~jobs (List.map wrap plans)) with Stop -> ());
  (Atomic.get stamp, List.fold_left (fun a (_, p) -> a + Exp.cell_count p) 0 plans)

type traced = {
  cells_ns : (string * int) list;  (* summed cell time per experiment *)
  cells : int;
  reduce_render_ns : int;
  pool_wall_ns : int;
  wall_ns : int;
  digest : string;
}

(* Run everything with each cell and each reduce timed separately. *)
let traced ~quick ~seed ~jobs =
  let t_start = now_ns () in
  let pool_end = Atomic.make 0 in
  let reduce_ns = ref 0 in
  let per_exp =
    List.map
      (fun (id, Exp.Plan { cells; reduce }) ->
        let acc = Atomic.make 0 in
        let cells =
          Array.map
            (fun cell () ->
              let t0 = now_ns () in
              let v = cell () in
              ignore (Atomic.fetch_and_add acc (now_ns () - t0) : int);
              v)
            cells
        in
        let reduce rs =
          let t0 = now_ns () in
          ignore (Atomic.compare_and_set pool_end 0 t0 : bool);
          let v = reduce rs in
          reduce_ns := !reduce_ns + (now_ns () - t0);
          v
        in
        (id, acc, Array.length cells, Exp.Plan { cells; reduce }))
      (plans ~quick ~seed)
  in
  let results = Exp.run_plans ~jobs (List.map (fun (id, _, _, p) -> (id, p)) per_exp) in
  let t0 = now_ns () in
  let out = Buffer.create 65536 in
  List.iter
    (fun (_, e) ->
      Buffer.add_string out (Exp.render e);
      Buffer.add_char out '\n')
    results;
  let render_ns = now_ns () - t0 in
  let t_end = now_ns () in
  {
    cells_ns = List.map (fun (id, acc, _, _) -> (id, Atomic.get acc)) per_exp;
    cells = List.fold_left (fun a (_, _, n, _) -> a + n) 0 per_exp;
    reduce_render_ns = !reduce_ns + render_ns;
    pool_wall_ns = Atomic.get pool_end - t_start;
    wall_ns = t_end - t_start;
    digest = Digest.to_hex (Digest.string (Buffer.contents out));
  }
