(* The zero-allocation rules Z1-Z4, each demonstrated on a
   seeded-violation fixture library under alloccheck_fixtures/ with exact
   expected findings (rule, file, line), so disabling or breaking any
   single rule fails its test.  The waiver cases run on check_fixtures/;
   the [@check.allow extern] boundary case is in test_check.ml. *)

let run = Test_check.run
let check_findings = Test_check.check_findings
let fixture name = Filename.concat "alloccheck_fixtures" name
let src = Test_check.src "alloccheck"

let test_z1_closure =
  (* The closure on line 4 lives in [mid], one call below the annotated
     root: the interprocedural half.  The chain in the message must name
     the intermediate. *)
  check_findings
    [ fixture "z1_closure" ]
    ~expected:[ ("Z1", src "z1_closure" "z1_closure.ml", 4) ]

let test_z1_chain_names_intermediate () =
  let findings = (Check_common.Cmt_driver.run [ fixture "z1_closure" ]).findings in
  match findings with
  | [ f ] ->
    let mentions sub =
      let n = String.length f.msg and m = String.length sub in
      let rec go i = i + m <= n && (String.sub f.msg i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "message names the root" true (mentions "Z1_closure.root");
    Alcotest.(check bool)
      "message names the intermediate" true
      (mentions "via Z1_closure.mid")
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let test_z2_boxed =
  check_findings
    [ fixture "z2_boxed" ]
    ~expected:[ ("Z2", src "z2_boxed" "z2_boxed.ml", 2) ]

let test_z3_bulk =
  check_findings
    [ fixture "z3_bulk" ]
    ~expected:[ ("Z3", src "z3_bulk" "z3_bulk.ml", 2) ]

let test_z4_extern =
  check_findings
    [ fixture "z4_extern" ]
    ~expected:[ ("Z4", src "z4_extern" "z4_extern.ml", 2) ]

let test_decoy =
  (* Allocations outside the root cone are not the checker's business. *)
  check_findings [ fixture "decoy" ] ~expected:[]

let test_suppressed = Test_check.suppressed_family ~prefix:"Z" ~expected:[ ("Z2", 22) ]

let test_stale =
  (* A waiver span in the root cone covering no finding is itself
     reported. *)
  check_findings
    [ Test_check.fixture "stale_alloc" ]
    ~expected:[ ("STALE", Test_check.here "stale_alloc" "stale_alloc.ml", 4) ]

let test_bad_allow =
  (* A waiver naming an unregistered rule key is itself reported. *)
  check_findings
    [ Test_check.fixture "unknown_alloc_key" ]
    ~expected:[ ("CHECK", Test_check.here "unknown_alloc_key" "bad_allow.ml", 3) ]

let test_whole_directory () =
  (* All fixtures at once, via the same recursive .cmt walk `ecfd check`
     uses. *)
  Alcotest.(check int)
    "total findings over alloccheck_fixtures/" 4
    (List.length (run [ "alloccheck_fixtures" ]))

let test_registry =
  Test_check.registry_family ~prefix:"Z" ~expected:[ "Z1"; "Z2"; "Z3"; "Z4" ]

let test_static_roots_parser () =
  let json =
    {|{ "minor_words_per_event_budget": 0.01,
        "static_roots": [ "Sim.Engine.step", "Sim.Heap.pop_exn" ],
        "note": "x" }|}
  in
  (match Check_common.Roots_check.static_roots_of_string json with
  | Ok roots ->
    Alcotest.(check (list string))
      "parsed roots" [ "Sim.Engine.step"; "Sim.Heap.pop_exn" ] roots
  | Error msg -> Alcotest.failf "parse failed: %s" msg);
  match Check_common.Roots_check.static_roots_of_string "{}" with
  | Ok _ -> Alcotest.fail "missing key must be an error"
  | Error _ -> ()

let suites =
  [
    ( "alloccheck",
      [
        Alcotest.test_case "Z1: closure via intermediate flagged" `Quick test_z1_closure;
        Alcotest.test_case "Z1: chain message names root and intermediate" `Quick
          test_z1_chain_names_intermediate;
        Alcotest.test_case "Z2: Some-boxing flagged" `Quick test_z2_boxed;
        Alcotest.test_case "Z3: Array.make via helper flagged" `Quick test_z3_bulk;
        Alcotest.test_case "Z4: unknown callback call flagged" `Quick test_z4_extern;
        Alcotest.test_case "decoy: allocations outside the root cone ignored" `Quick
          test_decoy;
        Alcotest.test_case "[@alloc.allow] suppresses with a reason" `Quick
          test_suppressed;
        Alcotest.test_case "unknown allow key is itself a finding" `Quick test_bad_allow;
        Alcotest.test_case "stale [@alloc.allow] is itself a finding" `Quick test_stale;
        Alcotest.test_case "directory walk finds every seeded violation" `Quick
          test_whole_directory;
        Alcotest.test_case "registry lists Z1-Z4 with unique keys" `Quick test_registry;
        Alcotest.test_case "static_roots budget parser round-trips" `Quick
          test_static_roots_parser;
      ] );
  ]
