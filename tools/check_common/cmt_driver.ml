(* The one driver of `ecfd check`: .cmt discovery and loading, index
   construction, every registered rule, [@check.allow] suppression,
   stale-waiver detection, the [@alloc.zero] roots drift gate and the
   report.  Unreadable .cmt files become [CMT] findings, so a broken
   build input can never silently pass the checker. *)

let load roots =
  let cmts = Cmt_source.discover roots in
  List.fold_left
    (fun (sources, findings) cmt_path ->
      match Cmt_source.load cmt_path with
      | Ok (Some src) -> (src :: sources, findings)
      | Ok None -> (sources, findings) (* no implementation: packs, aliases *)
      | Error msg ->
        ( sources,
          {
            Finding.file = cmt_path;
            line = 1;
            col = 0;
            offset = 0;
            rule = "CMT";
            key = "cmt";
            msg = "unreadable .cmt: " ^ msg;
            chain = [];
          }
          :: findings ))
    ([], []) cmts
  |> fun (sources, findings) -> (List.rev sources, findings)

(* Staleness: a well-formed [@check.allow <key> "reason"] span that covers
   no raw rule finding of that key and sanctions no checker boundary (a
   used site — an [@check.allow extern] the zero-allocation walk actually
   stopped at) suppresses nothing.  It is dead weight that silently
   widens the waiver surface, so it becomes a [STALE] finding itself. *)
let stale ~(spans : (string * Allow_payload.span list) list) ~used_sites rule_findings =
  List.concat_map
    (fun (file, spans) ->
      let here = List.filter (fun (f : Finding.t) -> String.equal f.file file) rule_findings in
      let used = List.filter (fun (f, _, _) -> String.equal f file) used_sites in
      List.filter_map
        (fun (s : Allow_payload.span) ->
          let covers (key, offset) = Allow_payload.covers_site s ~key ~offset in
          if
            List.exists (fun (f : Finding.t) -> covers (f.key, f.offset)) here
            || List.exists (fun (_, key, offset) -> covers (key, offset)) used
          then None
          else
            Some
              (Finding.of_loc ~rule:"STALE" ~key:s.key
                 ~msg:
                   (Printf.sprintf
                      "stale suppression: [@%s %s \"...\"] covers no %s finding and \
                       sanctions no checker boundary — it suppresses nothing; remove it \
                       (or fix the rule key)"
                      Allow_payload.attr_name s.key s.key)
                 s.loc))
        spans)
    spans

(* Run every registered rule over the .cmt files found below [roots].
   [findings] are the survivors (sorted) — rule findings no span covers,
   plus meta findings ([CMT], [CHECK], [STALE]), which deliberately
   bypass suppression: a broken suppression must not be able to hide
   itself.  [suppressed] are the span-covered findings, for the JSON
   artifact; [n_units] lets the caller refuse to bless an empty scan. *)
type result = {
  findings : Finding.t list;
  suppressed : Finding.t list;
  n_units : int;
  index : Index.t;
}

let run roots =
  let known_keys = List.map (fun (r : Trule.t) -> r.key) Registry.all in
  let sources, load_findings = load roots in
  let index = Index.build sources in
  let collected =
    List.map (fun (s : Cmt_source.t) -> (s.source_path, Tsuppress.collect ~known_keys s)) sources
  in
  let spans = List.map (fun (file, (s : Tsuppress.t)) -> (file, s.spans)) collected in
  let rule_findings = List.concat_map (fun (r : Trule.t) -> r.run index) Registry.all in
  let suppressed, surviving =
    List.partition
      (fun (f : Finding.t) ->
        Allow_payload.covers (Option.value ~default:[] (List.assoc_opt f.file spans)) f)
      rule_findings
  in
  let meta =
    load_findings
    @ List.concat_map (fun (_, (s : Tsuppress.t)) -> s.findings) collected
    @ stale ~spans ~used_sites:(Alloc_walk.boundaries index) rule_findings
  in
  {
    findings = List.sort_uniq Finding.compare (meta @ surviving);
    suppressed = List.sort_uniq Finding.compare suppressed;
    n_units = List.length sources;
    index;
  }

let budget_file = Filename.concat "bench" "alloc_budget.json"

(* The whole check, as `ecfd check` runs it: findings to stdout
   ("file:line: [RULE] msg"), optionally the findings artifact [json]
   (docs/schemas/findings.schema.json: survivors first, then the
   suppressed), and the roots drift gate against [budget_file].  Returns
   the exit code: 0 clean, 1 findings or drift, 2 when the check cannot
   run (no .cmt below [roots], budget file missing or unparseable). *)
let main ?json ?(budget_file = budget_file) roots =
  let r = run roots in
  let where = String.concat " " roots in
  if r.n_units = 0 then begin
    Printf.eprintf "ecfd check: no .cmt files below %s — build first (dune build @static)\n"
      where;
    2
  end
  else begin
    Option.iter
      (fun file ->
        Out_channel.with_open_bin file (fun oc ->
            output_string oc (Finding.list_to_json ~suppressed:r.suppressed r.findings)))
      json;
    List.iter (fun f -> print_endline (Finding.to_string f)) r.findings;
    match Roots_check.check ~budget_file r.index with
    | Error msg ->
      Printf.eprintf "ecfd check: %s\n" msg;
      2
    | Ok drift ->
      List.iter (Printf.eprintf "ecfd check: %s\n") drift;
      if r.findings = [] && drift = [] then begin
        Printf.eprintf "ecfd check: clean (%d rule(s) over %d unit(s) below %s)\n"
          (List.length Registry.all) r.n_units where;
        0
      end
      else begin
        Printf.eprintf "ecfd check: %d finding(s), %d roots drift line(s)\n"
          (List.length r.findings) (List.length drift);
        1
      end
  end
