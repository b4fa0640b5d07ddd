(* R6 — static metric and span names.

   The Obs registry's contract (registry.mli) is that the metric space is
   a static property of the code: every counter/gauge/histogram name and
   every span name is a string literal at its registration site, never
   data-dependent.  A computed name silently fractures one logical metric
   into per-value series and breaks the deterministic name-ordered
   snapshot as a greppable inventory.

   The rule checks the [~name] argument of [Obs.Registry.counter],
   [Obs.Registry.gauge], [Obs.Registry.histogram] and [Engine.begin_span]
   applications.  A genuinely parametric site (none exist today) can
   carry [@check.allow obsname "reason"]. *)

let rule_id = "R6"
let key = "obsname"

(* The registration entry points, by path suffix. *)
let watched =
  [
    ([ "Registry"; "counter" ], "metric");
    ([ "Registry"; "gauge" ], "metric");
    ([ "Registry"; "histogram" ], "metric");
    ([ "Engine"; "begin_span" ], "span");
  ]

let run (index : Index.t) =
  let findings = ref [] in
  let check (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_apply (f, args) -> (
      match Tast_util.head_path f with
      | None -> ()
      | Some np -> (
        match List.find_opt (fun (suffix, _) -> Tast_util.has_suffix ~suffix np) watched with
        | None -> ()
        | Some (suffix, what) ->
          List.iter
            (fun ((label : Asttypes.arg_label), (arg : Typedtree.expression option)) ->
              match (label, arg) with
              | Labelled "name", Some { exp_desc = Texp_constant (Const_string _); _ } -> ()
              | Labelled "name", Some arg ->
                findings :=
                  Finding.of_loc ~rule:rule_id ~key
                    ~msg:
                      (Printf.sprintf
                         "computed %s name: ~name of %s must be a string literal so the \
                          metric space is a static property of the code"
                         what (Tast_util.dotted suffix))
                    arg.exp_loc
                  :: !findings
              | _ -> ())
            args))
    | _ -> ()
  in
  List.iter
    (fun (src : Cmt_source.t) -> Tast_util.iter_structure_expressions check src.str)
    index.sources;
  List.rev !findings

let rule : Trule.t =
  {
    id = rule_id;
    key;
    doc =
      "static observability names: ~name passed to Obs.Registry.counter/gauge/histogram \
       and Engine.begin_span must be a string literal";
    run;
  }
