(* The typed-analysis rules A1-A4, each demonstrated on a seeded-violation
   fixture library under analyze_fixtures/ with exact expected findings
   (rule, file, line), so disabling or breaking any single rule fails its
   test.  Every rule runs on every fixture, so a pool job that writes
   captured state is both an A1 (purity) and a D1 (domain escape)
   finding. *)

let check_findings = Test_check.check_findings
let fixture name = Filename.concat "analyze_fixtures" name
let src = Test_check.src "analyze"

let test_pure_ok =
  (* Job-local mutation is allowed: a pure job produces no findings. *)
  check_findings [ fixture "pure_ok" ] ~expected:[]

let test_print_job =
  (* Line 4 is print_endline inside a helper the job calls — the
     interprocedural half; line 7 is a print directly in the closure. *)
  let file = src "print_job" "print_job.ml" in
  check_findings [ fixture "print_job" ] ~expected:[ ("A1", file, 4); ("A1", file, 7) ]

let test_captured_write =
  let file = src "captured_write" "captured_write.ml" in
  check_findings [ fixture "captured_write" ] ~expected:[ ("A1", file, 5); ("D1", file, 5) ]

let test_raising_timer =
  check_findings
    [ fixture "raising_timer" ]
    ~expected:[ ("A2", src "raising_timer" "raising_timer.ml", 5) ]

let test_aliased_eq =
  (* Line 4 uses a let-alias of (=) at Pid.t; line 7 an eta-expansion of
     that alias. *)
  let file = src "aliased_eq" "aliased_eq.ml" in
  check_findings [ fixture "aliased_eq" ] ~expected:[ ("A3", file, 4); ("A3", file, 7) ]

let test_polycmp_shapes =
  (* The shapes the retired R3 pinned down: bare compare at a type
     variable (line 8), = / <> against Value.t and Sim_time.t constants
     (lines 9, 10) and = against a vote constructor (line 11). *)
  let file = src "polycmp_bad" "polycmp_bad.ml" in
  check_findings
    [ fixture "polycmp_bad" ]
    ~expected:[ ("A3", file, 8); ("A3", file, 9); ("A3", file, 10); ("A3", file, 11) ]

let test_unordered_fold =
  (* The unsorted Hashtbl.fold on line 3 is flagged; its |> List.sort
     twin below is not. *)
  check_findings
    [ fixture "unordered_fold" ]
    ~expected:[ ("A4", src "unordered_fold" "unordered_fold.ml", 3) ]

let test_unordered_shapes =
  (* The shapes the retired R2 pinned down: an unsorted fold (line 4), a
     fold bound and never sorted (line 7), and a Hashtbl.iter pushing
     onto a list ref (line 12); the sorted and non-list twins are clean. *)
  let file = src "unordered_bad" "unordered_bad.ml" in
  check_findings
    [ fixture "unordered_bad" ]
    ~expected:[ ("A4", file, 4); ("A4", file, 7); ("A4", file, 12) ]

let test_whole_directory () =
  (* All fixtures at once, via the same recursive .cmt walk `ecfd check`
     uses. *)
  Alcotest.(check int)
    "total findings over analyze_fixtures/" 15
    (List.length (Test_check.run [ "analyze_fixtures" ]))

let test_scans_units () =
  let units = (Check_common.Cmt_driver.run [ fixture "pure_ok" ]).n_units in
  Alcotest.(check bool) "found at least one .cmt" true (units >= 1)

let test_suppressed =
  Test_check.suppressed_family ~prefix:"A" ~expected:[ ("A4", 12); ("A3", 16); ("A1", 30) ]

let test_registry =
  Test_check.registry_family ~prefix:"A" ~expected:[ "A1"; "A2"; "A3"; "A4" ]

let suites =
  [
    ( "analyze",
      [
        Alcotest.test_case "A1: pure job is clean" `Quick test_pure_ok;
        Alcotest.test_case "A1: printing job flagged (direct + via helper)" `Quick
          test_print_job;
        Alcotest.test_case "A1: captured-ref write flagged" `Quick test_captured_write;
        Alcotest.test_case "A2: raising timer callback flagged" `Quick test_raising_timer;
        Alcotest.test_case "A3: aliased (=) on Pid.t flagged" `Quick test_aliased_eq;
        Alcotest.test_case "A3: bare compare, protected constants, Yes/No" `Quick
          test_polycmp_shapes;
        Alcotest.test_case "[@analyze.allow] suppresses with a reason" `Quick
          test_suppressed;
        Alcotest.test_case "A4: unsorted Hashtbl.fold escape flagged" `Quick
          test_unordered_fold;
        Alcotest.test_case "A4: unsorted folds and Hashtbl.iter pushes" `Quick
          test_unordered_shapes;
        Alcotest.test_case "directory walk finds every seeded violation" `Quick
          test_whole_directory;
        Alcotest.test_case "fixture .cmt files are discovered" `Quick test_scans_units;
        Alcotest.test_case "registry lists A1-A4 with unique keys" `Quick test_registry;
      ] );
  ]
