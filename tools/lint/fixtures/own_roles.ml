(* Ownership fixture: [shared_cursor] is reachable from both the
   io-domain root and the executor root; [guarded] goes through a
   sanctioned constructor; [spawn_leak] hands a closure capturing the
   shared location to a spawner. [Pool.run] stands in for Domain.spawn
   so the fixture runs its closure inline instead of spawning a real
   domain. *)

module Pool = struct
  let run f = f ()
end

let shared_cursor = ref 0
let guarded = Atomic.make 0

let io_entry () =
  shared_cursor := !shared_cursor + 1;
  Atomic.incr guarded

let exec_entry () = shared_cursor := !shared_cursor + 2
let spawn_leak () = Pool.run (fun () -> shared_cursor := 0)
