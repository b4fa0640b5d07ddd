(* R4 — extensible-payload hygiene.

   Message kinds are extension constructors of [Sim.Payload.t].  Because
   every handler ends in a wildcard (the payload type is open), the
   compiler cannot warn about a kind that is declared but never sent, or
   sent but never matched — such envelopes are silently dropped.  The rule
   checks, per library directory, that every [Payload.t +=] constructor is
   both constructed and matched somewhere in that directory. *)

let rule_id = "R4"
let key = "payload"

type decl = { ctor : string; loc : Location.t; dir : string }

(* [type Payload.t += ...] under any module prefix; inside the defining
   module itself ([lib/sim/payload.ml]) the path is just [t]. *)
let is_payload_path ~source_path p =
  Tast_util.has_suffix ~suffix:[ "Payload"; "t" ] (Tast_util.path_of p)
  || (String.equal (Path.name p) "t" && Filename.basename source_path = "payload.ml")

let scan ~decls ~constructed ~matched (src : Cmt_source.t) =
  let dir = Filename.dirname src.source_path in
  let open Tast_iterator in
  let it =
    {
      default_iterator with
      type_extension =
        (fun self (te : Typedtree.type_extension) ->
          if is_payload_path ~source_path:src.source_path te.tyext_path then
            List.iter
              (fun (ec : Typedtree.extension_constructor) ->
                match ec.ext_kind with
                | Text_decl _ ->
                  decls := { ctor = ec.ext_name.txt; loc = ec.ext_loc; dir } :: !decls
                | Text_rebind _ -> ())
              te.tyext_constructors;
          default_iterator.type_extension self te);
      expr =
        (fun self (e : Typedtree.expression) ->
          (match e.exp_desc with
          | Texp_construct (_, cd, _) -> Hashtbl.replace constructed (dir, cd.cstr_name) ()
          | _ -> ());
          default_iterator.expr self e);
      pat =
        (fun (type k) self (p : k Typedtree.general_pattern) ->
          (match p.pat_desc with
          | Typedtree.Tpat_construct (_, cd, _, _) ->
            Hashtbl.replace matched (dir, cd.cstr_name) ()
          | _ -> ());
          default_iterator.pat self p);
    }
  in
  it.structure it src.str

let run (index : Index.t) =
  let decls = ref [] and constructed = Hashtbl.create 64 and matched = Hashtbl.create 64 in
  List.iter (scan ~decls ~constructed ~matched) index.sources;
  List.filter_map
    (fun d ->
      let flag fmt =
        Some (Finding.of_loc ~rule:rule_id ~key ~msg:(Printf.sprintf fmt d.ctor d.dir) d.loc)
      in
      if not (Hashtbl.mem constructed (d.dir, d.ctor)) then
        flag "dead message kind: payload constructor %s is declared but never constructed in %s/"
      else if not (Hashtbl.mem matched (d.dir, d.ctor)) then
        flag
          "silently dropped message kind: payload constructor %s is sent but never \
           matched in %s/ — only wildcard handlers see it"
      else None)
    (List.rev !decls)

let rule : Trule.t =
  {
    id = rule_id;
    key;
    doc =
      "payload hygiene: every Payload.t += constructor must be both constructed and \
       matched within its library";
    run;
  }
