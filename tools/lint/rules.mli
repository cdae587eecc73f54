(** The rule implementations over .cmt typed trees.

    Each returns plain findings; waiver/baseline filtering happens in
    the driver so waived and baselined counts can be reported. *)

(** {2 Shared typed-tree helpers} (also used by {!Ownership}) *)

val norm_path : Path.t -> string
(** Resolved identifier path with any leading [Stdlib.] stripped. *)

val suffix_matches : string -> string -> bool
(** [suffix_matches name candidate]: equal, or [name] ends with
    [. ^ candidate] — so [Memo.create] covers [Rio_exec.Memo.create]. *)

val ident_of_fn : Typedtree.expression -> string option
(** The normalized path when the expression is a plain identifier. *)

val mutable_record_fields : (Types.label_description * 'a) array -> bool

(** {2 Rules} *)

val determinism : Manifest.t -> Typedtree.structure -> Finding.t list
(** References to manifest-forbidden identifier families
    (e.g. [Random.*], [Sys.time]) anywhere in the unit, plus
    [Hashtbl.create ~random]. *)

val domain_safety : Manifest.t -> Typedtree.structure -> Finding.t list
(** Module-level [let]s (including inside submodules and functor
    bodies) that build unsynchronized mutable state on their spine —
    manifest-listed constructors, records with mutable fields, array
    literals, toplevel [lazy] — unless the spine goes through a
    sanctioned wrapper such as [Exec.Memo.create]. *)

val transitive_zero_alloc :
  Manifest.t -> Callgraph.t -> Finding.t list * string list
(** Zero-alloc audit of the whole closure reachable from the manifest's
    hot entry points over the call graph: flags tuple/record/array/
    constructor construction, closures, partial applications, lazy
    blocks and boxed-float results in every reachable function body,
    with the witness call chain from the entry point. Justified
    [(boundaries ...)] entries cut edges (deliberate cold paths such as
    a magazine refill). Returns the findings plus the names of the
    boundaries that actually cut an edge — a boundary that never fires
    is stale and [--stale-check] fails on it. A hot function missing
    from its file yields a finding at line 1, so manifest typos fail
    the gate instead of silently shrinking the audit. *)

val interface : Manifest.t -> root:string -> Finding.t list
(** Every [.ml] under the scan dirs must ship a sibling [.mli].
    Generated [.ml-gen] alias modules are excluded. *)
