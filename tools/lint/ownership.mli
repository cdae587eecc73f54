(** The domain-ownership race detector (DESIGN.md §16).

    Roots are the manifest's role-annotated entry points: every
    [(zero-alloc (hot ...))] entry plus the extra [(ownership (roots
    ...))] entries. Each root's reachable closure (over the call graph)
    is computed per role; a toplevel mutable location reachable from two
    distinct roles is flagged with both witness chains, unless its
    defining spine goes through a sanctioned constructor
    ([Atomic.make], [Spsc.create], [Mutex.create], ...) or the
    finding is waived.

    A second check flags closure literals passed to a manifest-listed
    spawner ([Domain.spawn], [Pool.run], ...) from inside a role's
    closure when they capture a toplevel mutable location: the spawned
    domain runs outside every role, so the capture leaks unguarded
    state across domains even when only one role reaches it
    statically. *)

val check : Manifest.t -> Callgraph.t -> Finding.t list
(** Findings carry rule ["ownership"], the mutable location's (or the
    captured closure's) span, and canonical source paths. A root
    function the call graph cannot find yields a finding at the named
    file's first line, so manifest typos fail the gate instead of
    silently shrinking the audit. *)
