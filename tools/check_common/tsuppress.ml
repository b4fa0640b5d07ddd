(* Per-site suppression collection: [@check.allow <rule-key> "reason"]
   walked out of a .cmt typedtree.

   The attribute may sit on an expression, a value binding or an
   extension constructor (the [Payload.t +=] kinds R4 checks), or float
   at the top of a file ([@@@check.allow ...] suppresses for the whole
   file); the reason string is mandatory; the rule key must name a
   registered rule; and a broken attribute is itself reported under the
   meta rule [CHECK].  Attributes survive typing unchanged, so the spans
   are collected from the typedtree of the .cmt — no reparse. *)

type t = {
  spans : Allow_payload.span list;
  findings : Finding.t list;
}

let collect ~known_keys (src : Cmt_source.t) =
  let spans = ref [] and findings = ref [] in
  let note_attrs ~(span : Location.t) (attrs : Parsetree.attributes) =
    List.iter
      (fun (attr : Parsetree.attribute) ->
        match Allow_payload.classify ~known_keys ~span attr with
        | None -> ()
        | Some (Ok span) -> spans := span :: !spans
        | Some (Error f) -> findings := f :: !findings)
      attrs
  in
  let open Tast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun self (e : Typedtree.expression) ->
          note_attrs ~span:e.exp_loc e.exp_attributes;
          default_iterator.expr self e);
      value_binding =
        (fun self (vb : Typedtree.value_binding) ->
          note_attrs ~span:vb.vb_loc vb.vb_attributes;
          default_iterator.value_binding self vb);
      extension_constructor =
        (fun self (ec : Typedtree.extension_constructor) ->
          note_attrs ~span:ec.ext_loc ec.ext_attributes;
          default_iterator.extension_constructor self ec);
      structure_item =
        (fun self (item : Typedtree.structure_item) ->
          (match item.str_desc with
          | Tstr_attribute attr ->
            note_attrs
              ~span:(Allow_payload.file_span src.Cmt_source.source_path)
              [ attr ]
          | Tstr_eval (_, attrs) -> note_attrs ~span:item.str_loc attrs
          | _ -> ());
          default_iterator.structure_item self item);
    }
  in
  it.structure it src.Cmt_source.str;
  { spans = !spans; findings = !findings }
