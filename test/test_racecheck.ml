(* The domain-safety rules D1, D2 and D4, each demonstrated on a
   seeded-violation fixture library under racecheck_fixtures/ with exact
   expected findings (rule, file, line), so disabling or breaking any
   single rule fails its test.  Every rule runs on every fixture, so a
   pool job that writes captured state is both a D1 (domain escape) and
   an A1 (purity) finding. *)

let check_findings = Test_check.check_findings
let fixture name = Filename.concat "racecheck_fixtures" name
let src = Test_check.src "racecheck"

let test_d1_capture =
  (* Line 11 is the write directly in the pool closure; line 5 the same
     ref written through a helper — the interprocedural half. *)
  let file = src "d1_capture" "d1_capture.ml" in
  check_findings
    [ fixture "d1_capture" ]
    ~expected:[ ("A1", file, 5); ("D1", file, 5); ("A1", file, 11); ("D1", file, 11) ]

let test_d2_publish =
  check_findings
    [ fixture "d2_publish" ]
    ~expected:[ ("D2", src "d2_publish" "d2_publish.ml", 6) ]

let test_d4_mutex =
  check_findings
    [ fixture "d4_mutex" ]
    ~expected:
      [
        ("D4", src "d4_mutex" "d4_mutex.ml", 4);
        ("D4", src "d4_mutex" "d4_mutex.ml", 7);
        ("D4", src "d4_mutex" "d4_mutex.ml", 8);
      ]

let test_boundary =
  (* Under a lib/exec/ path, Atomic is sanctioned (no D4) and an opaque
     callee in a [@race.domain] hook IS a D1 obligation; the decoy
     shard.ml outside lib/exec/ gets no exemption. *)
  check_findings
    [ fixture "boundary" ]
    ~expected:
      [
        ("D1", src "boundary" "lib/exec/pooled.ml", 10);
        ("D4", src "boundary" "shard.ml", 3);
      ]

let test_clean_shard =
  (* Owner-threaded state inside the closure: the design, not a race. *)
  check_findings [ fixture "clean_shard" ] ~expected:[]

let test_suppressed =
  (* Two keys stacked on one pool-job write waive its D1 and D2 findings. *)
  Test_check.suppressed_family ~prefix:"D" ~expected:[ ("D1", 30); ("D2", 30) ]

let test_stale =
  (* A waiver span covering no finding is itself reported. *)
  check_findings
    [ Test_check.fixture "stale_race" ]
    ~expected:[ ("STALE", Test_check.here "stale_race" "race_stale.ml", 7) ]

let test_whole_directory () =
  (* All fixtures at once, via the same recursive .cmt walk `ecfd check`
     uses. *)
  Alcotest.(check int)
    "total findings over racecheck_fixtures/" 10
    (List.length (Test_check.run [ "racecheck_fixtures" ]))

let test_registry =
  Test_check.registry_family ~prefix:"D" ~expected:[ "D1"; "D2"; "D4" ] ~retired:[ "D3" ]

let suites =
  [
    ( "racecheck",
      [
        Alcotest.test_case "D1: captured write flagged (direct + via helper)" `Quick
          test_d1_capture;
        Alcotest.test_case "D2: unpublished cross-domain read flagged" `Quick
          test_d2_publish;
        Alcotest.test_case "D4: Mutex outside the boundary flagged" `Quick
          test_d4_mutex;
        Alcotest.test_case "boundary: lib/exec sanctioned, decoy shard.ml not" `Quick
          test_boundary;
        Alcotest.test_case "clean shard-local closure produces no findings" `Quick
          test_clean_shard;
        Alcotest.test_case "[@race.allow] suppresses with a reason" `Quick
          test_suppressed;
        Alcotest.test_case "stale [@race.allow] is itself a finding" `Quick test_stale;
        Alcotest.test_case "directory walk finds every seeded violation" `Quick
          test_whole_directory;
        Alcotest.test_case "registry lists D1-D4 with unique keys" `Quick test_registry;
      ] );
  ]
