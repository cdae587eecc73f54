(* The four rule implementations. Everything here walks the typed tree
   ([Typedtree]) out of the .cmt files the normal dune build already
   produces, so the checks see resolved paths and inferred types, not
   source text.

   Only version-stable corners of the compiler-libs API are used
   (wildcard payloads on constructors whose shape moved between 4.14
   and 5.x), so the same source builds on every CI compiler. *)

open Typedtree

let mk = Finding.of_loc

(* Resolved identifier path with any leading [Stdlib.] stripped, so the
   manifest can say [Random.] and cover [Stdlib.Random.*] too. *)
let norm_path p =
  let n = Path.name p in
  let pfx = "Stdlib." in
  let lp = String.length pfx in
  if String.length n > lp && String.sub n 0 lp = pfx then
    String.sub n lp (String.length n - lp)
  else n

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Suffix semantics for sanctioned wrappers: [Memo.create] matches both
   [Rio_exec.Memo.create] and a locally aliased [Memo.create]. *)
let suffix_matches name candidate =
  name = candidate
  ||
  let ln = String.length name and lc = String.length candidate in
  ln > lc + 1 && String.sub name (ln - lc - 1) (lc + 1) = "." ^ candidate

let ident_of_fn e =
  match e.exp_desc with Texp_ident (p, _, _) -> Some (norm_path p) | _ -> None

(* {2 Rule: determinism} *)

let determinism (m : Manifest.t) str =
  let acc = ref [] in
  let add f = acc := f :: !acc in
  let check_ident loc name =
    List.iter
      (fun (fb : Manifest.forbidden) ->
        if starts_with ~prefix:fb.prefix name then
          add
            (mk ~rule:"determinism" ~subject:name
               ~message:
                 (Printf.sprintf
                    "reference to %s in deterministic scope (forbidden: %s)"
                    name fb.prefix)
               ~hint:
                 (if fb.hint <> "" then fb.hint
                  else "draw through Splittable_rng/Seeds streams")
               loc))
      m.det_forbidden
  in
  let expr it e =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> check_ident e.exp_loc (norm_path p)
    | Texp_apply (fn, args) -> (
        match ident_of_fn fn with
        | Some "Hashtbl.create" ->
            if
              List.exists
                (function
                  (* An omitted optional is elaborated by the typer as
                     a supplied [None] literal; anything else means the
                     caller actually passed ~random. *)
                  | ( (Asttypes.Labelled "random" | Asttypes.Optional "random"),
                      Some arg ) -> (
                      match arg.exp_desc with
                      | Texp_construct (_, cd, _) ->
                          cd.Types.cstr_name <> "None"
                      | _ -> true)
                  | _ -> false)
                args
            then
              add
                (mk ~rule:"determinism" ~subject:"Hashtbl.create ~random"
                   ~message:
                     "Hashtbl.create ~random seeds the hash from the \
                      environment; iteration order becomes run-dependent"
                   ~hint:"drop ~random; deterministic hashing is the default"
                   e.exp_loc)
        | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it str;
  !acc

(* {2 Rule: domain-safety}

   Module-level [let]s must not create unsynchronized mutable state:
   anything a pool worker could reach as a shared global. State built
   inside functions is fine (per-instance), as is state wrapped in the
   sanctioned [Exec.Memo]/[Mutex] constructors. *)

let mutable_record_fields fields =
  Array.exists
    (fun (ld, _) ->
      match ld.Types.lbl_mut with Asttypes.Mutable -> true | _ -> false)
    fields

(* Walk one toplevel binding's spine: everything evaluated at module
   init, i.e. not delayed under a function. Returns the findings and
   whether a sanctioned wrapper was seen. *)
let check_toplevel_binding (m : Manifest.t) ~name vb_expr =
  let acc = ref [] in
  let sanctioned = ref false in
  let add loc message hint =
    acc := mk ~rule:"domain-safety" ~subject:name ~message ~hint loc :: !acc
  in
  let hint =
    "wrap in Exec.Memo/Exec.Lock, move it inside the consumer, or waive \
     with a justification in lint.manifest.sexp"
  in
  let expr it e =
    match e.exp_desc with
    | Texp_function _ -> () (* delayed; not module state *)
    | Texp_apply (fn, _) -> (
        match ident_of_fn fn with
        | Some n when List.exists (suffix_matches n) m.ds_sanctioned ->
            sanctioned := true
        | Some n when List.mem n m.ds_mutable ->
            add e.exp_loc
              (Printf.sprintf
                 "module-level mutable state: toplevel `%s` built with %s" name
                 n)
              hint;
            Tast_iterator.default_iterator.expr it e
        | _ -> Tast_iterator.default_iterator.expr it e)
    | Texp_record { fields; _ } when mutable_record_fields fields ->
        add e.exp_loc
          (Printf.sprintf
             "module-level mutable state: toplevel `%s` is a record with \
              mutable fields"
             name)
          hint;
        Tast_iterator.default_iterator.expr it e
    | Texp_array _ ->
        add e.exp_loc
          (Printf.sprintf
             "module-level mutable state: toplevel `%s` holds an array \
              literal (arrays are always mutable)"
             name)
          hint;
        Tast_iterator.default_iterator.expr it e
    | Texp_lazy _ ->
        add e.exp_loc
          (Printf.sprintf
             "module-level `lazy` in `%s`: forcing from two domains races on \
              the thunk"
             name)
          hint
    | _ -> Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it vb_expr;
  if !sanctioned then [] else List.rev !acc

let binding_name vb =
  match pat_bound_idents vb.vb_pat with id :: _ -> Ident.name id | [] -> "_"

(* Structure walk shared by the toplevel-scoped rules: visits value
   bindings at module level, descending into submodules and functor
   bodies (so functorized code like Magazine.Make is covered). *)
let rec walk_structure on_binding str =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) -> List.iter on_binding vbs
      | Tstr_module mb -> walk_module_expr on_binding mb.mb_expr
      | Tstr_recmodule mbs ->
          List.iter (fun mb -> walk_module_expr on_binding mb.mb_expr) mbs
      | Tstr_include incl -> walk_module_expr on_binding incl.incl_mod
      | _ -> ())
    str.str_items

and walk_module_expr on_binding me =
  match me.mod_desc with
  | Tmod_structure s -> walk_structure on_binding s
  | Tmod_functor (_, body) -> walk_module_expr on_binding body
  | Tmod_constraint (me, _, _, _) -> walk_module_expr on_binding me
  | Tmod_apply (f, arg, _) ->
      walk_module_expr on_binding f;
      walk_module_expr on_binding arg
  | _ -> ()

let domain_safety (m : Manifest.t) str =
  let acc = ref [] in
  walk_structure
    (fun vb ->
      acc := check_toplevel_binding m ~name:(binding_name vb) vb.vb_expr @ !acc)
    str;
  List.rev !acc

(* {2 Rule: zero-alloc (transitive)}

   Flag every construct the typed tree shows to allocate, in every
   function reachable from a manifest hot entry point over the call
   graph. Deliberately conservative: it complements the exact runtime
   words/op gate in bench/compare.ml with a diagnostic that names the
   offending expression — and the witness call chain that makes it hot —
   at build time.

   Local non-escaping [ref] cells are not flagged: Simplif.eliminate_ref
   reliably turns those into mutable locals, and the runtime gate proves
   the result allocation-free. *)

let is_float_ty ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Path.same p Predef.path_float
  | _ -> false

(* Known allocator entry points worth naming even though they are
   "just" applications. [ref] is deliberately absent: local
   non-escaping refs are eliminated by Simplif.eliminate_ref. *)
let allocator_fns =
  [
    "Array.make"; "Array.init"; "Array.copy"; "Array.append"; "Array.sub";
    "Array.of_list"; "Array.to_list"; "Bytes.create"; "Bytes.make";
    "String.make"; "String.sub"; "String.concat"; "Hashtbl.create";
    "Buffer.create"; "Queue.create"; "Stack.create";
  ]

(* Allocation sites on a function body: (location, what) pairs. *)
let alloc_sites vb_expr =
  let acc = ref [] in
  let add loc what = acc := (loc, what) :: !acc in
  (* [chain] is true while descending the curried [fun a -> fun b -> ...]
     head of the definition itself; the first non-function node switches
     to checking mode, and any function met after that is a closure. *)
  let chain = ref true in
  let expr it e =
    match e.exp_desc with
    | Texp_function _ when !chain -> Tast_iterator.default_iterator.expr it e
    | desc ->
        let saved = !chain in
        chain := false;
        (match desc with
        | Texp_function _ -> add e.exp_loc "closure construction (captures environment)"
        | Texp_tuple _ -> add e.exp_loc "tuple construction"
        | Texp_record _ -> add e.exp_loc "record construction"
        | Texp_array _ -> add e.exp_loc "array construction"
        | Texp_lazy _ -> add e.exp_loc "lazy block construction"
        | Texp_construct (_, cd, _) when cd.Types.cstr_arity > 0 ->
            add e.exp_loc
              (Printf.sprintf "constructor `%s` application (boxes %d argument%s)"
                 cd.Types.cstr_name cd.Types.cstr_arity
                 (if cd.Types.cstr_arity = 1 then "" else "s"))
        | Texp_apply (fn, _) -> (
            match ident_of_fn fn with
            | Some n when List.mem n allocator_fns ->
                add e.exp_loc (Printf.sprintf "call to allocator `%s`" n)
            | _ -> (
                match Types.get_desc e.exp_type with
                | Types.Tarrow _ ->
                    add e.exp_loc "partial application (allocates a closure)"
                | _ ->
                    if is_float_ty e.exp_type then
                      add e.exp_loc "boxed float result of an application"
                    else ()))
        | _ -> ());
        Tast_iterator.default_iterator.expr it e;
        chain := saved
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it vb_expr;
  List.rev !acc

(* A boundary name matches a definition's canonical dotted path either
   exactly or as a dot-delimited suffix, so the manifest can say
   [Allocator.alloc_pfn] for [Rio_iova.Allocator.alloc_pfn]. *)
let boundary_for (m : Manifest.t) (d : Callgraph.def) =
  List.find_opt
    (fun (b : Manifest.boundary) -> suffix_matches d.Callgraph.d_canon b.b_name)
    m.za_boundaries

let za_hint =
  "hoist the allocation out of the hot path (preallocate, return via \
   out-params, raise a constant exception), cut the edge with a justified \
   (boundaries ...) entry, or waive it in the manifest"

let missing_hot (h : Manifest.hot) fn =
  {
    Finding.rule = "zero-alloc";
    file = h.h_file;
    line = 1;
    col = 0;
    end_line = 1;
    end_col = 0;
    subject = fn;
    message =
      Printf.sprintf "hot entry point `%s` not found in %s (manifest out of \
                      date?)" fn h.h_file;
    hint = "fix the (hot ...) entry in lint.manifest.sexp";
    chain = [];
  }

let transitive_zero_alloc (m : Manifest.t) cg =
  let findings = ref [] in
  let hit_boundaries = ref [] in
  (* Global visited set: the first entry point (in manifest order) to
     reach a function owns its findings and witness chain, so each
     allocation site is reported exactly once. *)
  let visited = Hashtbl.create 256 in
  let rec visit (d : Callgraph.def) chain =
    if not (Hashtbl.mem visited d.Callgraph.d_id) then begin
      Hashtbl.add visited d.Callgraph.d_id ();
      List.iter
        (fun (loc, what) ->
          findings :=
            {
              (mk ~rule:"zero-alloc" ~subject:d.d_display
                 ~message:
                   (Printf.sprintf "allocation in hot function `%s`: %s"
                      d.d_display what)
                 ~hint:za_hint ~chain loc)
              with Finding.file = d.d_file;
            }
            :: !findings)
        (alloc_sites d.d_expr);
      List.iter
        (fun ((tgt : Callgraph.def), _loc) ->
          match boundary_for m tgt with
          | Some b ->
              if not (List.mem b.b_name !hit_boundaries) then
                hit_boundaries := b.b_name :: !hit_boundaries
          | None ->
              if tgt.d_is_fun && tgt.d_id <> d.Callgraph.d_id then
                visit tgt (chain @ [ tgt.d_display ]))
        (Callgraph.refs cg d)
    end
  in
  List.iter
    (fun (h : Manifest.hot) ->
      List.iter
        (fun fn ->
          match Callgraph.find cg ~file:h.h_file ~name:fn with
          | [] -> findings := missing_hot h fn :: !findings
          | ds ->
              List.iter
                (fun (d : Callgraph.def) ->
                  match boundary_for m d with
                  | Some b ->
                      if not (List.mem b.b_name !hit_boundaries) then
                        hit_boundaries := b.b_name :: !hit_boundaries
                  | None -> visit d [ d.d_display ])
                ds)
        h.h_funs)
    m.za_hot;
  (List.rev !findings, List.rev !hit_boundaries)

(* {2 Rule: interface}

   Walks the (build-tree copy of the) source dirs directly: every [.ml]
   must ship an [.mli]. Generated alias modules end in [.ml-gen] and
   are skipped. *)

let interface (m : Manifest.t) ~root =
  if not m.iface_require_mli then []
  else
    let acc = ref [] in
    let rec scan rel_dir =
      let abs = Filename.concat root rel_dir in
      match Sys.readdir abs with
      | exception Sys_error _ -> ()
      | entries ->
          Array.sort String.compare entries;
          Array.iter
            (fun entry ->
              if entry <> "" && entry.[0] <> '.' then
                let rel = Filename.concat rel_dir entry in
                let abs_e = Filename.concat abs entry in
                if Sys.is_directory abs_e then scan rel
                else if Filename.check_suffix entry ".ml" then
                  let mli = Filename.chop_suffix abs_e ".ml" ^ ".mli" in
                  if not (Sys.file_exists mli) then
                    acc :=
                      {
                        Finding.rule = "interface";
                        file = rel;
                        line = 1;
                        col = 0;
                        end_line = 1;
                        end_col = 0;
                        chain = [];
                        subject = entry;
                        message =
                          Printf.sprintf
                            "public module `%s` has no .mli interface"
                            (Filename.chop_suffix entry ".ml");
                        hint =
                          "add one (hide representation types, document the \
                           contract) or waive with a justification";
                      }
                      :: !acc)
            entries
    in
    List.iter scan m.scan_dirs;
    !acc
