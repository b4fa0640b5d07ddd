(* The payload grammar of the one suppression attribute,
   [@check.allow <key> "reason"].  Tsuppress walks the typed trees to find
   the attributes; the payload shape, the mandatory-reason policy and the
   span-matching rule live here. *)

let attr_name = "check.allow"

type span = {
  key : string;
  left : int;
  right : int;
  loc : Location.t;  (** The attribute's own location — where a stale span is reported. *)
}

(* Payload forms accepted:
     [@check.allow key "reason"]   -> Some (key, Some reason)
     [@check.allow key]            -> Some (key, None)       (missing reason)
   anything else                   -> None                   (malformed)  *)
let parse (attr : Parsetree.attribute) =
  match attr.attr_payload with
  | PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] -> (
    match e.pexp_desc with
    | Pexp_ident { txt = Lident key; _ } -> Some (key, None)
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Lident key; _ }; _ },
          [ (Nolabel, { pexp_desc = Pexp_constant (Pconst_string (reason, _, _)); _ }) ]
        ) ->
      Some (key, Some reason)
    | _ -> None)
  | _ -> None

(* Interpret one attribute covering [span]: [None] if it is not a
   [@check.allow], else either a well-formed suppression span or a
   [CHECK] finding describing why the attribute itself is broken.
   [known_keys] is the registered rule keys: an allow naming any other key
   is rejected rather than silently ignored — a typoed key would produce a
   span that could never match a finding, i.e. a suppression that
   suppressed nothing without telling anyone. *)
let classify ~known_keys ~(span : Location.t) (attr : Parsetree.attribute) =
  let broken msg =
    Some (Error (Finding.of_loc ~rule:"CHECK" ~key:"check" ~msg attr.attr_loc))
  in
  if not (String.equal attr.attr_name.txt attr_name) then None
  else
    match parse attr with
    | Some (key, Some _) when not (List.mem key known_keys) ->
      broken
        (Printf.sprintf
           "[@%s %s]: unknown rule key %S (known: %s) — a suppression naming no \
            registered rule suppresses nothing"
           attr_name key key
           (String.concat ", " (List.sort String.compare known_keys)))
    | Some (key, Some reason) when String.trim reason <> "" ->
      Some
        (Ok
           {
             key;
             left = span.loc_start.pos_cnum;
             right = span.loc_end.pos_cnum;
             loc = attr.attr_loc;
           })
    | Some (key, _) ->
      broken
        (Printf.sprintf
           "[@%s %s] needs a non-empty reason string, e.g. [@%s %s \"why this site \
            is safe\"]"
           attr_name key attr_name key)
    | None -> broken (Printf.sprintf "malformed [@%s]: expected <rule-key> \"reason\"" attr_name)

(* A whole-file span, for floating [@@@check.allow ...] attributes. *)
let file_span path : Location.t =
  {
    loc_start = { pos_fname = path; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 };
    loc_end = { pos_fname = path; pos_lnum = max_int; pos_bol = 0; pos_cnum = max_int };
    loc_ghost = false;
  }

let covers_site s ~key ~offset = String.equal s.key key && s.left <= offset && offset <= s.right

let covers spans (f : Finding.t) =
  List.exists (fun s -> covers_site s ~key:f.key ~offset:f.offset) spans
