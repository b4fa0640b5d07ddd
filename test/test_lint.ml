(* The determinism & hygiene rules R1 and R4-R6, each demonstrated on a
   seeded-violation fixture library under lint_fixtures/ with exact
   expected findings (rule, file, line), so disabling or breaking any
   single rule fails its test.  R2 and R3 are retired: their fixtures
   and assertions moved to A4 and A3 (test_analyze.ml).  The suppression
   grammar cases run on check_fixtures/ (see test_check.ml). *)

let check_findings = Test_check.check_findings
let fixture name = Filename.concat "lint_fixtures" name
let src = Test_check.src "lint"

let test_r1_ambient =
  let file = src "ambient_bad" "ambient_bad.ml" in
  check_findings
    [ fixture "ambient_bad" ]
    ~expected:(List.map (fun line -> ("R1", file, line)) [ 3; 4; 5; 6; 7 ])

let test_r1_rng_exemption =
  (* The R1 exemption is the path lib/sim/rng.ml: the real path's Random
     use passes, a decoy rng.ml under bench/ is flagged. *)
  check_findings
    [ fixture "decoy_rng_case" ]
    ~expected:[ ("R1", src "decoy_rng_case" "bench/rng.ml", 4) ]

let test_r4_payload =
  let file = src "payload_bad" "payload_bad.ml" in
  check_findings [ fixture "payload_bad" ] ~expected:[ ("R4", file, 6); ("R4", file, 7) ]

let test_r5_mli =
  check_findings [ fixture "mli_case" ] ~expected:[ ("R5", src "mli_case" "lib/orphan.ml", 1) ]

let test_r6_obsname =
  (* Computed ~name arguments to the Obs registration points and to
     Engine.begin_span; the literal sites and the [@check.allow obsname]
     site at the bottom of the fixture stay silent. *)
  let file = src "obsname_bad" "obsname_bad.ml" in
  check_findings
    [ fixture "obsname_bad" ]
    ~expected:[ ("R6", file, 2); ("R6", file, 3); ("R6", file, 6); ("R6", file, 8) ]

let test_whole_directory () =
  (* All fixtures at once: the per-fixture expectations above, via the
     same recursive .cmt walk `ecfd check` uses. *)
  Alcotest.(check int) "total findings over lint_fixtures/" 13
    (List.length (Test_check.run [ "lint_fixtures" ]))

let test_suppressed =
  Test_check.suppressed_family ~prefix:"R" ~expected:[ ("R1", 9); ("R4", 19) ]

let test_registry =
  Test_check.registry_family ~prefix:"R" ~expected:[ "R1"; "R4"; "R5"; "R6" ]
    ~retired:[ "R2"; "R3" ]

let suites =
  [
    ( "lint",
      [
        Alcotest.test_case "R1: ambient nondeterminism fixture" `Quick test_r1_ambient;
        Alcotest.test_case "R1: rng.ml exemption is by exact path" `Quick
          test_r1_rng_exemption;
        Alcotest.test_case "R4: payload-hygiene fixture" `Quick test_r4_payload;
        Alcotest.test_case "R5: missing-mli fixture" `Quick test_r5_mli;
        Alcotest.test_case "R6: computed-observability-name fixture" `Quick
          test_r6_obsname;
        Alcotest.test_case "[@lint.allow] suppresses with a reason" `Quick test_suppressed;
        Alcotest.test_case "[@lint.allow] without a reason is reported" `Quick
          Test_check.test_missing_reason;
        Alcotest.test_case "[@lint.allow] with an unknown rule key is reported" `Quick
          Test_check.test_unknown_key;
        Alcotest.test_case "stale [@lint.allow] is itself a finding" `Quick
          Test_check.test_stale;
        Alcotest.test_case "directory walk finds every seeded violation" `Quick
          test_whole_directory;
        Alcotest.test_case "registry lists R1-R6 with unique keys" `Quick test_registry;
      ] );
  ]
