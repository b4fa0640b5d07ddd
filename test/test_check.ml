(* In-process coverage of `ecfd check`'s driver (tools/check_common): the
   exit codes of the library entry the CLI runs and the extern boundary of
   the zero-allocation walk.  The one [@check.allow] suppression grammar
   (a reason is required, keys must exist, stale waivers are reported) and
   the one rule registry are checked family by family in test_lint.ml,
   test_analyze.ml, test_alloccheck.ml and test_racecheck.ml, through the
   helpers below.

   Fixtures are real dune libraries: the checker reads the .cmt files
   their compilation produced, exactly as `dune build @static` does for
   lib/, bench/ and bin/.  Locations inside .cmt files are relative to
   the build root ("test/check_fixtures/..."). *)

let triples fs = List.map (fun (f : Check_common.Finding.t) -> (f.rule, f.file, f.line)) fs
let run paths = triples (Check_common.Cmt_driver.run paths).findings

let check_findings ~expected paths () =
  Alcotest.(check (list (triple string string int)))
    "findings (rule, file, line)" expected (run paths)

(* [src "check" "stale" "stale_allow.ml"] =
   "test/check_fixtures/stale/stale_allow.ml". *)
let src family case file = Printf.sprintf "test/%s_fixtures/%s/%s" family case file

let fixture name = Filename.concat "check_fixtures" name
let here = src "check"

(* [@check.allow] is the one suppression attribute of all four rule
   families.  Each family's suite checks its own waivers against the shared
   fixture check_fixtures/allowed/, through these helpers; the case names
   there keep the per-family attribute names ([@lint.allow],
   [@analyze.allow], [@alloc.allow], [@race.allow]) the families used
   before the checkers were merged. *)
let has_prefix prefix (rule, _, _) = String.starts_with ~prefix rule

let suppressed_family ~prefix ~expected () =
  let r = Check_common.Cmt_driver.run [ fixture "allowed" ] in
  Alcotest.(check (list (triple string string int)))
    "no surviving findings" [] (triples r.findings);
  let file = here "allowed" "allowed.ml" in
  Alcotest.(check (list (triple string string int)))
    ("every waived " ^ prefix ^ " finding is recorded as suppressed")
    (List.map (fun (rule, line) -> (rule, file, line)) expected)
    (List.filter (has_prefix prefix) (triples r.suppressed))

let test_missing_reason =
  let file = here "missing_reason" "missing_reason.ml" in
  check_findings [ fixture "missing_reason" ] ~expected:[ ("R1", file, 5); ("CHECK", file, 5) ]

let test_unknown_key =
  (* A key no registered rule owns would suppress nothing — report the
     suppression itself and keep the underlying finding. *)
  let file = here "unknown_key" "unknown_key.ml" in
  check_findings [ fixture "unknown_key" ] ~expected:[ ("R1", file, 5); ("CHECK", file, 5) ]

let test_stale =
  check_findings [ fixture "stale" ] ~expected:[ ("STALE", here "stale" "stale_allow.ml", 3) ]

(* One family's slice of the one registry: its live ids in order, its
   retired ids absent, and no suppression key shared between any two
   rules of any family. *)
let registry_family ~prefix ~expected ?(retired = []) () =
  let ids = List.map (fun (r : Check_common.Trule.t) -> r.id) Check_common.Registry.all in
  Alcotest.(check (list string))
    (prefix ^ " rule ids") expected
    (List.filter (String.starts_with ~prefix) ids);
  List.iter
    (fun id -> Alcotest.(check bool) (id ^ " is retired") false (List.mem id ids))
    retired;
  let keys = List.map (fun (r : Check_common.Trule.t) -> r.key) Check_common.Registry.all in
  Alcotest.(check int)
    "suppression keys are unique" (List.length keys)
    (List.length (List.sort_uniq String.compare keys))

let test_extern_boundary =
  (* Nothing to report: the walk stops at the waived call (no Z4), and the
     honoured boundary keeps the waiver from being stale. *)
  check_findings [ fixture "extern_boundary" ] ~expected:[]

(* The roots drift gate: [main] must refuse to pass when it cannot read
   the budget — whatever directory it is run from. *)
let exit_code ?(roots = [ Filename.concat "analyze_fixtures" "pure_ok" ]) budget =
  let file = Filename.temp_file "alloc_budget" ".json" in
  Out_channel.with_open_bin file (fun oc -> output_string oc budget);
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () -> Check_common.Cmt_driver.main ~budget_file:file roots)

let test_budget_gate () =
  Alcotest.(check int)
    "missing budget file is an error" 2
    (Check_common.Cmt_driver.main ~budget_file:"no_such_alloc_budget.json"
       [ Filename.concat "analyze_fixtures" "pure_ok" ]);
  Alcotest.(check int)
    "budget without static_roots is an error" 2
    (exit_code {|{ "minor_words_per_event_budget": 0.01 }|});
  Alcotest.(check int) "roots in sync: clean" 0 (exit_code {|{ "static_roots": [] }|});
  Alcotest.(check int)
    "a listed root with no annotation is drift" 1
    (exit_code {|{ "static_roots": [ "Sim.Engine.step" ] }|});
  Alcotest.(check int)
    "no .cmt below the roots is an error" 2
    (exit_code ~roots:[ "golden" ] {|{ "static_roots": [] }|})

let suites =
  [
    ( "check",
      [
        Alcotest.test_case "an extern waiver the Z walk stops at is not stale" `Quick
          test_extern_boundary;
        Alcotest.test_case "roots gate: unreadable budget exits 2, drift exits 1" `Quick
          test_budget_gate;
      ] );
  ]
