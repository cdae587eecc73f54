(** Deterministic parallel execution of independent tasks.

    [run ~jobs tasks] evaluates every closure of [tasks] and returns
    their results {e in task order}, never in completion order: the
    output is byte-identical whether the tasks ran sequentially or were
    scheduled across a domain pool in any interleaving (provided each
    task is a pure function of its own inputs - the cell contract of
    DESIGN.md §10).

    With [jobs > 1] the tasks are spread over a fixed pool of [jobs]
    domains with per-worker queues and work stealing; with [jobs <= 1]
    they run sequentially on the calling domain. An exception raised by
    any task aborts the run and is re-raised (with its backtrace) once
    the pool has quiesced. *)

val default_jobs : unit -> int
(** The recommended domain count of the machine
    ([Domain.recommended_domain_count]). This is what [jobs = 0]
    resolves to. *)

val run : ?jobs:int -> (unit -> 'a) array -> 'a array
(** [jobs] defaults to 1 (sequential). [0] means "one worker per
    recommended domain". Raises [Invalid_argument] on negative [jobs]. *)

val run_list : ?jobs:int -> (unit -> 'a) list -> 'a list
(** List convenience wrapper over {!run}. *)
