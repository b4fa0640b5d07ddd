(* Drift check between the two halves of the allocation discipline:

     - the static half: the set of [@alloc.zero] roots found in the
       scanned .cmt files (what this checker actually proves about);
     - the dynamic half: the "static_roots" list in
       bench/alloc_budget.json, next to the minor-words-per-event budget
       the e20 gate enforces at run time.

   If someone annotates a new hot-path root (or drops one) without
   updating the budget file — or edits the budget file without touching
   the code — the two halves no longer describe the same hot path, and
   CI should say so.  The comparison is on sorted dotted paths
   ("Sim.Engine.step"); only module-level roots have one, so a stray
   [@alloc.zero] on a local binding is reported as drift too. *)

(* The "static_roots" string array of the budget file. *)
let static_roots_of_string s =
  match Json_min.member "static_roots" (Json_min.parse s) with
  | exception Json_min.Parse_error msg -> Error msg
  | None -> Error "no \"static_roots\" key"
  | Some (Json_min.List items) -> (
    match List.filter_map Json_min.to_string items with
    | roots when List.length roots = List.length items -> Ok roots
    | _ -> Error "\"static_roots\" holds a non-string")
  | Some _ -> Error "\"static_roots\" is not an array"

(* Compare the roots in [index] with the budget file.  [Error] if the
   file is missing or has no readable "static_roots" list — the gate
   cannot run, which must not pass silently; otherwise the drift lines
   (empty = in sync). *)
let check ~budget_file (index : Index.t) =
  match In_channel.with_open_bin budget_file In_channel.input_all with
  | exception Sys_error msg -> Error (Printf.sprintf "cannot read the allocation budget: %s" msg)
  | text -> (
    match static_roots_of_string text with
    | Error msg -> Error (Printf.sprintf "%s: %s" budget_file msg)
    | Ok declared ->
      let discovered, local =
        List.partition_map
          (fun (d : Index.def) ->
            match d.gpath with Some p -> Left p | None -> Right d.display)
          (Alloc_walk.roots index)
      in
      let declared = List.sort_uniq String.compare declared in
      let discovered = List.sort_uniq String.compare discovered in
      let missing_in_json = List.filter (fun r -> not (List.mem r declared)) discovered in
      let missing_in_code = List.filter (fun r -> not (List.mem r discovered)) declared in
      Ok
        (List.map
           (fun d ->
             Printf.sprintf
               "[@alloc.zero] on local binding %s — only module-level roots can be \
                tracked in %s"
               d budget_file)
           local
        @ List.map
            (fun r ->
              Printf.sprintf
                "[@alloc.zero] root %s is not listed in %s \"static_roots\" — add it \
                 so the static and dynamic allocation gates cover the same hot path"
                r budget_file)
            missing_in_json
        @ List.map
            (fun r ->
              Printf.sprintf
                "%s \"static_roots\" lists %s but no such [@alloc.zero] annotation \
                 exists in the scanned units — remove it or restore the annotation"
                budget_file r)
            missing_in_code))
