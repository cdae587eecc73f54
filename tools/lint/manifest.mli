(** Loader for [lint.manifest.sexp]: the committed rule set the linter
    enforces, plus the waivers that silence individual findings with a
    recorded justification, and for the committed suppression baseline
    ([lint.baseline.sexp]). Schema in DESIGN.md §11/§16. *)

type forbidden = { prefix : string; hint : string }
(** A forbidden identifier family for the determinism rule. [prefix] is
    matched against the resolved path with any leading ["Stdlib."]
    stripped, so ["Random."] covers both [Random.int] and
    [Stdlib.Random.int]. *)

type hot = { h_file : string; h_funs : string list; h_role : string }
(** A zero-alloc entry point: toplevel (or functor-level) bindings
    [h_funs] of source file [h_file]. The whole call-graph closure
    reachable from an entry point is audited, not just its body.
    [h_role] ("io-domain" | "executor" | "any-domain", default
    "any-domain") also roots the ownership rule's role closures. *)

type boundary = { b_name : string; b_just : string }
(** A closure cut for the transitive zero-alloc rule: traversal stops at
    (and does not audit) functions whose qualified name suffix-matches
    [b_name] ("Module.fn" or longer). Requires a justification, like a
    waiver; a boundary no closure reaches is reported stale under
    [--stale-check]. *)

type cg_alias = { a_file : string; a_module : string; a_targets : string list }
(** A call-graph resolution hint: inside [a_file], calls through module
    prefix [a_module] (a functor parameter or a first-class module)
    resolve to each dotted module path in [a_targets]. *)

type root = { r_file : string; r_funs : string list; r_role : string }
(** An ownership-rule role root that is not zero-alloc gated (event
    loops, domain bodies): role closure entry points only. *)

type waiver = {
  w_rule : string;  (** rule id the waiver applies to *)
  w_file : string;  (** exact source path as printed in findings *)
  w_ident : string option;
      (** when present, a prefix match on the finding subject; when
          absent the waiver covers the whole file for that rule *)
  w_just : string;  (** required non-empty justification *)
}

type t = {
  scan_dirs : string list;
  det_forbidden : forbidden list;
  ds_mutable : string list;
  ds_sanctioned : string list;
  cg_aliases : cg_alias list;
  za_hot : hot list;
  za_boundaries : boundary list;
  own_roots : root list;
  own_sanctioned : string list;
      (** constructors whose module-level state the ownership rule
          accepts across roles (Atomic.make, Mutex.create, ...) *)
  own_spawners : string list;
      (** functions whose literal closure arguments cross a domain
          boundary (Domain.spawn, Pool.run, ...) *)
  iface_require_mli : bool;
  waivers : waiver list;
}

type baseline_entry = {
  bl_rule : string;
  bl_file : string;
  bl_subject : string;  (** prefix match on the finding subject *)
  bl_msg : string option;  (** when present, substring of the message *)
}
(** One committed suppression: a legacy finding that does not fail the
    gate but stays visible in the JSON report. Entries deliberately
    carry no positions so they survive unrelated line drift; an entry
    matching no finding is reported stale under [--stale-check]. *)

exception Invalid of string

val load : string -> t
(** Raises {!Invalid} with a message on malformed manifests, including
    duplicate entries for the same (file, function) or rule pair. *)

val load_baseline : string -> baseline_entry list
(** Raises {!Invalid} on malformed baselines. *)
