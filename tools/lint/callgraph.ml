(* Whole-program call graph over the scanned .cmt typed trees. Only
   version-stable corners of compiler-libs are touched (wildcard
   payloads everywhere a constructor's shape moved between 4.14 and
   5.x), so the same source builds on every CI compiler. *)

open Typedtree

type def = {
  d_id : int;
  d_unit : string;
  d_file : string;
  d_qual : string;
  d_name : string;
  d_display : string;
  d_canon : string;
  d_loc : Location.t;
  d_expr : Typedtree.expression;
  d_is_fun : bool;
}

type unit_info = {
  u_dotted : string;
  u_short : string;
  u_file : string;
  u_aliases : (string, string) Hashtbl.t;  (* local module name -> dotted path *)
  mutable u_defs : def list;  (* reverse collection order *)
  mutable u_idents : (Ident.t * def) list;
}

type t = {
  units : unit_info list;
  by_dotted : (string, unit_info) Hashtbl.t;
  by_file : (string, unit_info) Hashtbl.t;
  (* manifest (callgraph (aliases ...)): (file, module prefix) -> dotted targets *)
  m_aliases : (string * string, string list) Hashtbl.t;
  mutable next_id : int;
}

(* "Rio_iommu__Driver" (wrapped-library compilation unit) and
   "Rio_iommu.Driver" (access path through the alias module) are the
   same unit; normalize both to the dotted form. *)
let dedot name =
  let name =
    let pfx = "Stdlib." in
    if String.length name > 7 && String.sub name 0 7 = pfx then
      String.sub name 7 (String.length name - 7)
    else name
  in
  let buf = Buffer.create (String.length name) in
  let n = String.length name in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && name.[!i] = '_' && name.[!i + 1] = '_' then begin
      Buffer.add_char buf '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char buf name.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let short_of_dotted dotted =
  match List.rev (String.split_on_char '.' dotted) with
  | last :: _ -> last
  | [] -> dotted

let is_function e =
  match e.exp_desc with Texp_function _ -> true | _ -> false

let binding_idents vb = pat_bound_idents vb.vb_pat

(* The module expression a [module X = ...] binding routes calls
   through: a plain alias gives the target path, a functor application
   gives the functor's path (every [X.f] then resolves into the functor
   body — all instantiations share it; see the imprecision note in the
   .mli). *)
let rec alias_head me =
  match me.mod_desc with
  | Tmod_ident (p, _) ->
      let n = Path.name p in
      if String.contains n '(' then None else Some n
  | Tmod_constraint (me, _, _, _) -> alias_head me
  | Tmod_apply (f, _, _) -> alias_head f
  | _ -> None

let add_def t u ~prefix ~vb =
  match binding_idents vb with
  | [] -> ()
  | id :: _ as ids ->
      let name = Ident.name id in
      let qual = if prefix = "" then name else prefix ^ "." ^ name in
      let d =
        {
          d_id = t.next_id;
          d_unit = u.u_dotted;
          d_file = u.u_file;
          d_qual = qual;
          d_name = name;
          d_display = u.u_short ^ "." ^ qual;
          d_canon = u.u_dotted ^ "." ^ qual;
          d_loc = vb.vb_pat.pat_loc;
          d_expr = vb.vb_expr;
          d_is_fun = is_function vb.vb_expr;
        }
      in
      t.next_id <- t.next_id + 1;
      u.u_defs <- d :: u.u_defs;
      List.iter (fun i -> u.u_idents <- (i, d) :: u.u_idents) ids

let rec walk_str t u ~prefix str =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) -> List.iter (fun vb -> add_def t u ~prefix ~vb) vbs
      | Tstr_module mb -> walk_mb t u ~prefix mb
      | Tstr_recmodule mbs -> List.iter (walk_mb t u ~prefix) mbs
      | Tstr_include incl -> walk_mod t u ~prefix incl.incl_mod
      | _ -> ())
    str.str_items

and walk_mb t u ~prefix mb =
  let name = match mb.mb_name.Location.txt with Some n -> n | None -> "_" in
  (match alias_head mb.mb_expr with
  | Some target when not (Hashtbl.mem u.u_aliases name) ->
      Hashtbl.add u.u_aliases name (dedot target)
  | _ -> ());
  let sub = if prefix = "" then name else prefix ^ "." ^ name in
  walk_mod t u ~prefix:sub mb.mb_expr

and walk_mod t u ~prefix me =
  match me.mod_desc with
  | Tmod_structure s -> walk_str t u ~prefix s
  | Tmod_functor (_, body) -> walk_mod t u ~prefix body
  | Tmod_constraint (me, _, _, _) -> walk_mod t u ~prefix me
  | Tmod_apply (f, arg, _) ->
      walk_mod t u ~prefix f;
      walk_mod t u ~prefix arg
  | _ -> ()

let create (m : Manifest.t) units_data =
  let t =
    {
      units = [];
      by_dotted = Hashtbl.create 64;
      by_file = Hashtbl.create 64;
      m_aliases = Hashtbl.create 16;
      next_id = 0;
    }
  in
  List.iter
    (fun (a : Manifest.cg_alias) ->
      Hashtbl.replace t.m_aliases (a.a_file, a.a_module) a.a_targets)
    m.cg_aliases;
  let units =
    List.map
      (fun (modname, file, str) ->
        let dotted = dedot modname in
        let u =
          {
            u_dotted = dotted;
            u_short = short_of_dotted dotted;
            u_file = file;
            u_aliases = Hashtbl.create 16;
            u_defs = [];
            u_idents = [];
          }
        in
        walk_str t u ~prefix:"" str;
        u.u_defs <- List.rev u.u_defs;
        Hashtbl.replace t.by_dotted dotted u;
        Hashtbl.replace t.by_file file u;
        u)
      units_data
  in
  { t with units }

let defs t = List.concat_map (fun u -> u.u_defs) t.units

let find t ~file ~name =
  match Hashtbl.find_opt t.by_file file with
  | None -> []
  | Some u -> List.filter (fun d -> d.d_name = name) u.u_defs

let rec take n = function
  | x :: tl when n > 0 -> x :: take (n - 1) tl
  | _ -> []

let rec drop n = function
  | _ :: tl when n > 0 -> drop (n - 1) tl
  | l -> l

let defs_exact u ~rm ~fname =
  let qual = String.concat "." (rm @ [ fname ]) in
  List.filter (fun d -> d.d_qual = qual) u.u_defs

(* Inside a positively identified target unit a bare-name fallback is
   sound: [include Make (X)] re-exports the functor body's bindings at
   the unit's toplevel without re-typing them. *)
let defs_loose u ~rm ~fname =
  match defs_exact u ~rm ~fname with
  | [] -> List.filter (fun d -> d.d_name = fname) u.u_defs
  | ds -> ds

(* Resolve a dotted module path + function name to definitions. [depth]
   bounds local-alias expansion (alias cycles cannot loop the linter). *)
let rec resolve_mods t u ~depth mods fname =
  if depth > 8 then []
  else
    match mods with
    | [] -> []
    | head :: rest -> (
        match Hashtbl.find_opt u.u_aliases head with
        | Some target ->
            resolve_mods t u ~depth:(depth + 1)
              (String.split_on_char '.' target @ rest)
              fname
        | None -> (
            let ncomp = List.length mods in
            let rec try_prefix j =
              if j = 0 then None
              else
                let prefix = String.concat "." (take j mods) in
                match Hashtbl.find_opt t.by_dotted prefix with
                | Some tu -> (
                    match defs_loose tu ~rm:(drop j mods) ~fname with
                    | [] -> try_prefix (j - 1)
                    | ds -> Some ds)
                | None -> try_prefix (j - 1)
            in
            match try_prefix ncomp with
            | Some ds -> ds
            | None -> (
                (* a submodule of the current unit, by exact path *)
                match defs_exact u ~rm:mods ~fname with
                | _ :: _ as ds -> ds
                | [] -> (
                    (* manifest hint: functor parameter / first-class
                       module *)
                    match Hashtbl.find_opt t.m_aliases (u.u_file, head) with
                    | Some targets ->
                        List.concat_map
                          (fun tgt ->
                            resolve_mods t u ~depth:(depth + 1)
                              (String.split_on_char '.' (dedot tgt) @ rest)
                              fname)
                          targets
                    | None -> []))))

let resolve t u (p : Path.t) =
  match p with
  | Path.Pident id ->
      List.filter_map
        (fun (i, d) -> if Ident.same i id then Some d else None)
        u.u_idents
  | _ -> (
      let name = dedot (Path.name p) in
      if String.contains name '(' then []
      else
        match List.rev (String.split_on_char '.' name) with
        | fname :: (_ :: _ as rev_mods) ->
            resolve_mods t u ~depth:0 (List.rev rev_mods) fname
        | _ -> [])

let collect_refs t u root =
  let acc = ref [] in
  let seen = Hashtbl.create 16 in
  let expr it e =
    (match e.exp_desc with
    | Texp_ident (p, _, _) ->
        List.iter
          (fun d ->
            if not (Hashtbl.mem seen d.d_id) then begin
              Hashtbl.add seen d.d_id ();
              acc := (d, e.exp_loc) :: !acc
            end)
          (resolve t u p)
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it root;
  List.rev !acc

let unit_of t d =
  match Hashtbl.find_opt t.by_dotted d.d_unit with
  | Some u -> u
  | None -> assert false

let refs t d = collect_refs t (unit_of t d) d.d_expr
let refs_in t d e = collect_refs t (unit_of t d) e
