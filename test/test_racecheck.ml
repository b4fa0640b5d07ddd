(* In-process coverage of ecfd-racecheck (tools/racecheck): each
   domain-safety rule (D1, D2, D4) is demonstrated on a seeded-violation fixture
   library under racecheck_fixtures/ with exact expected findings (rule,
   file, line), so disabling or breaking any single rule fails its test.
   The fixtures are real dune libraries — the checker reads the .cmt
   files their compilation produced, exactly as `dune build @racecheck`
   does for lib/ and bench/. *)

let result paths = Racecheck_core.Driver.run paths

let run paths =
  List.map
    (fun (f : Check_common.Finding.t) -> (f.rule, f.file, f.line))
    (result paths).Check_common.Cmt_driver.findings

let fixture name = Filename.concat "racecheck_fixtures" name

(* Locations inside .cmt files are relative to the build root. *)
let src case file = Printf.sprintf "test/racecheck_fixtures/%s/%s" case file

let check_findings ~expected paths () =
  Alcotest.(check (list (triple string string int)))
    "findings (rule, file, line)" expected (run paths)

let test_d1_capture =
  (* Line 11 is the write directly in the pool closure; line 5 the same
     ref written through a helper — the interprocedural half. *)
  check_findings
    [ fixture "d1_capture" ]
    ~expected:
      [
        ("D1", src "d1_capture" "d1_capture.ml", 5);
        ("D1", src "d1_capture" "d1_capture.ml", 11);
      ]

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

let test_suppressed () =
  let r = result [ fixture "suppressed" ] in
  Alcotest.(check (list (triple string string int)))
    "no surviving findings" []
    (List.map
       (fun (f : Check_common.Finding.t) -> (f.rule, f.file, f.line))
       r.Check_common.Cmt_driver.findings);
  Alcotest.(check int)
    "both violations recorded as suppressed" 2
    (List.length r.Check_common.Cmt_driver.suppressed)

let test_stale =
  (* A [@race.allow] span covering no finding is itself reported. *)
  check_findings
    [ fixture "stale" ]
    ~expected:[ ("STALE", src "stale" "race_stale.ml", 7) ]

let test_whole_directory () =
  (* All fixtures at once, via the same recursive .cmt walk the dune
     @racecheck alias uses. *)
  Alcotest.(check int)
    "total findings over racecheck_fixtures/" 9
    (List.length (run [ "racecheck_fixtures" ]))

let test_registry () =
  let ids = List.map (fun (r : Racecheck_core.Drule.t) -> r.id) Racecheck_core.Registry.all in
  Alcotest.(check (list string)) "rule ids" [ "D1"; "D2"; "D4" ] ids;
  let keys =
    List.map (fun (r : Racecheck_core.Drule.t) -> r.key) Racecheck_core.Registry.all
  in
  Alcotest.(check int)
    "suppression keys are unique"
    (List.length keys)
    (List.length (List.sort_uniq String.compare keys))

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
