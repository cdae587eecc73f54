(** Markov prefetcher whose [invalidate] rescans the whole table; same
    behaviour as {!Rio_prefetch.Markov}. *)

include Rio_prefetch.Prefetcher.S
