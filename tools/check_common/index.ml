(* The whole-program value index: every [let]-bound value in every loaded
   compilation unit, addressable two ways —

     - by identifier stamp ([Ident.unique_name]), which is how a
       [Texp_ident (Pident _)] reference inside the same unit finds its
       definition (module-level or deeply local, the stamp is exact);
     - by normalised dotted path ("Sim.Engine.set_timer"), which is how a
       cross-unit [Pdot] reference finds it.

   This is the substrate the interprocedural rules (A1 purity, A2
   exception-safety, the Z and D walks) build their reachability
   closures on. *)

type def = {
  display : string;  (** For messages: path, or ["name (file:line)"] for locals. *)
  gpath : string option;  (** Dotted path when module-level, e.g. ["Exec.Pool.run"]. *)
  stamp : string;  (** [Ident.unique_name] of the bound identifier. *)
  expr : Typedtree.expression;
  attrs : Parsetree.attributes;  (** Attributes on the value binding. *)
  loc : Location.t;
  source_file : string;
}

type t = {
  sources : Cmt_source.t list;
  by_stamp : (string, def) Hashtbl.t;
  by_path : (string, def) Hashtbl.t;
  all_defs : def list;  (** Deterministic order: source order, then tree order. *)
}

let def_key (d : def) = (d.source_file, d.loc.loc_start.pos_cnum)

let add t ~(source : Cmt_source.t) ~modpath ~toplevel id (vb : Typedtree.value_binding)
    acc =
  let name = Ident.name id in
  let loc = vb.vb_loc in
  let gpath =
    if toplevel then Some (String.concat "." (modpath @ [ name ])) else None
  in
  let display =
    match gpath with
    | Some p -> p
    | None ->
      Printf.sprintf "%s (%s:%d)" name loc.loc_start.pos_fname loc.loc_start.pos_lnum
  in
  let def =
    {
      display;
      gpath;
      stamp = Ident.unique_name id;
      expr = vb.vb_expr;
      attrs = vb.vb_attributes;
      loc;
      source_file = source.source_path;
    }
  in
  Hashtbl.replace t.by_stamp (Ident.unique_name id) def;
  (match gpath with Some p -> Hashtbl.replace t.by_path p def | None -> ());
  def :: acc

(* Local value bindings anywhere below an expression. *)
let collect_locals t ~source e acc =
  let acc = ref acc in
  let open Tast_iterator in
  let it =
    {
      default_iterator with
      value_binding =
        (fun self (vb : Typedtree.value_binding) ->
          (match vb.vb_pat.pat_desc with
          | Tpat_var (id, _) | Tpat_alias ({ pat_desc = Tpat_any; _ }, id, _) ->
            acc := add t ~source ~modpath:[] ~toplevel:false id vb !acc
          | _ -> ());
          default_iterator.value_binding self vb);
    }
  in
  it.expr it e;
  !acc

let rec collect_structure t ~source ~modpath (str : Typedtree.structure) acc =
  List.fold_left
    (fun acc (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        let acc =
          List.fold_left
            (fun acc (vb : Typedtree.value_binding) ->
              match vb.vb_pat.pat_desc with
              | Tpat_var (id, _) | Tpat_alias ({ pat_desc = Tpat_any; _ }, id, _) ->
                add t ~source ~modpath ~toplevel:true id vb acc
              | _ -> acc)
            acc vbs
        in
        List.fold_left
          (fun acc (vb : Typedtree.value_binding) ->
            collect_locals t ~source vb.vb_expr acc)
          acc vbs
      | Tstr_module mb -> collect_module t ~source ~modpath acc mb
      | Tstr_recmodule mbs ->
        List.fold_left (collect_module t ~source ~modpath) acc mbs
      | Tstr_eval (e, _) -> collect_locals t ~source e acc
      | _ -> acc)
    acc str.str_items

and collect_module t ~source ~modpath acc (mb : Typedtree.module_binding) =
  let name = match mb.mb_name.txt with Some n -> n | None -> "_" in
  collect_module_expr t ~source ~modpath:(modpath @ [ name ]) acc mb.mb_expr

and collect_module_expr t ~source ~modpath acc (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_structure str -> collect_structure t ~source ~modpath str acc
  | Tmod_constraint (me, _, _, _) -> collect_module_expr t ~source ~modpath acc me
  | _ -> acc

let build sources =
  let t =
    {
      sources;
      by_stamp = Hashtbl.create 512;
      by_path = Hashtbl.create 512;
      all_defs = [];
    }
  in
  let defs =
    List.fold_left
      (fun acc (source : Cmt_source.t) ->
        collect_structure t ~source ~modpath:source.modpath source.str acc)
      [] sources
  in
  { t with all_defs = List.rev defs }

(* Resolve a reference to its definition, if the program text defines it. *)
let resolve_stamp t s = Hashtbl.find_opt t.by_stamp s
let resolve_path t p = Hashtbl.find_opt t.by_path p
