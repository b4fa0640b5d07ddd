(* The observability layer: Obs.Registry semantics, the two trace
   exporters against checked-in golden files (byte-exact, seeded run),
   the JSONL reader (decode then re-encode is the identity), and the
   trace query core behind `ecfd filter` / `ancestry` / `diff` /
   `validate` (ancestry, diff, filter, schema) on a crafted trace. *)

let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let registry_tests =
  [
    tc "counter: incr and add aggregate" (fun () ->
        let r = Obs.Registry.create () in
        let c = Obs.Registry.counter r ~name:"x.count" in
        Obs.Registry.incr c;
        Obs.Registry.add c 4;
        Alcotest.(check bool)
          "value 5" true
          (Obs.Registry.snapshot r = [ ("x.count", Obs.Registry.Counter 5) ]));
    tc "gauge: set overwrites, set_max keeps the high-water" (fun () ->
        let r = Obs.Registry.create () in
        let g = Obs.Registry.gauge r ~name:"x.level" in
        Obs.Registry.set g 7;
        Obs.Registry.set_max g 3;
        Alcotest.(check bool)
          "set_max 3 after set 7 keeps 7" true
          (Obs.Registry.snapshot r = [ ("x.level", Obs.Registry.Gauge 7) ]);
        Obs.Registry.set g 2;
        Alcotest.(check bool)
          "set 2 overwrites" true
          (Obs.Registry.snapshot r = [ ("x.level", Obs.Registry.Gauge 2) ]));
    tc "histogram: bucketing, overflow, count/sum/max" (fun () ->
        let r = Obs.Registry.create () in
        let h = Obs.Registry.histogram r ~name:"x.lat" ~buckets:[ 10; 100 ] in
        List.iter (Obs.Registry.observe h) [ 0; 10; 11; 250 ];
        match Obs.Registry.snapshot r with
        | [ ("x.lat", Obs.Registry.Histogram v) ] ->
          Alcotest.(check (list int)) "bounds" [ 10; 100 ] v.buckets;
          Alcotest.(check (list int)) "per-bucket + overflow" [ 2; 1; 1 ] v.counts;
          Alcotest.(check int) "count" 4 v.count;
          Alcotest.(check int) "sum" 271 v.sum;
          Alcotest.(check int) "max" 250 v.max_value
        | _ -> Alcotest.fail "expected exactly one histogram");
    tc "registration is idempotent and aggregating" (fun () ->
        let r = Obs.Registry.create () in
        Obs.Registry.incr (Obs.Registry.counter r ~name:"x.count");
        Obs.Registry.incr (Obs.Registry.counter r ~name:"x.count");
        Alcotest.(check bool)
          "both increments on one metric" true
          (Obs.Registry.snapshot r = [ ("x.count", Obs.Registry.Counter 2) ]));
    tc "re-registering under a different kind is refused" (fun () ->
        let r = Obs.Registry.create () in
        ignore (Obs.Registry.counter r ~name:"x.count");
        Alcotest.check_raises "kind mismatch"
          (Invalid_argument
             "Obs.Registry: \"x.count\" is already registered as a counter, not a gauge")
          (fun () -> ignore (Obs.Registry.gauge r ~name:"x.count")));
    tc "snapshot is in name order, not insertion order" (fun () ->
        let r = Obs.Registry.create () in
        ignore (Obs.Registry.counter r ~name:"z.last");
        ignore (Obs.Registry.counter r ~name:"a.first");
        ignore (Obs.Registry.counter r ~name:"m.middle");
        Alcotest.(check (list string))
          "sorted names"
          [ "a.first"; "m.middle"; "z.last" ]
          (List.map fst (Obs.Registry.snapshot r)));
    tc "json_of_snapshot renders every kind deterministically" (fun () ->
        let r = Obs.Registry.create () in
        Obs.Registry.add (Obs.Registry.counter r ~name:"c") 3;
        Obs.Registry.set (Obs.Registry.gauge r ~name:"g") 9;
        Obs.Registry.observe (Obs.Registry.histogram r ~name:"h" ~buckets:[ 2 ]) 1;
        Alcotest.(check string)
          "exact JSON"
          "{\"metrics\":[{\"name\":\"c\",\"kind\":\"counter\",\"value\":3},{\"name\":\"g\",\"kind\":\"gauge\",\"value\":9},{\"name\":\"h\",\"kind\":\"histogram\",\"buckets\":[2],\"counts\":[1,0],\"count\":1,\"sum\":1,\"max\":1,\"p50\":1,\"p99\":1,\"p999\":1}]}"
          (Obs.Registry.json_of_snapshot (Obs.Registry.snapshot r)));
  ]

(* ------------------------------------------------------------------ *)
(* Update interception (observer hooks: count, or capture and replay)  *)
(* ------------------------------------------------------------------ *)

let hook_tests =
  [
    tc "capturing hook defers updates until apply" (fun () ->
        let r = Obs.Registry.create () in
        let c = Obs.Registry.counter r ~name:"c" in
        let ops = ref [] in
        Obs.Registry.set_hook r
          (Some
             (fun op ->
               ops := op :: !ops;
               true));
        Obs.Registry.incr c;
        Obs.Registry.add c 4;
        Obs.Registry.set_hook r None;
        Alcotest.(check bool)
          "nothing applied while captured" true
          (Obs.Registry.snapshot r = [ ("c", Obs.Registry.Counter 0) ]);
        List.iter Obs.Registry.apply (List.rev !ops);
        Alcotest.(check bool)
          "apply replays the captured updates" true
          (Obs.Registry.snapshot r = [ ("c", Obs.Registry.Counter 5) ]));
    tc "a declining hook lets updates through directly" (fun () ->
        let r = Obs.Registry.create () in
        let c = Obs.Registry.counter r ~name:"c" in
        let calls = ref 0 in
        Obs.Registry.set_hook r
          (Some
             (fun _op ->
               incr calls;
               false));
        Obs.Registry.add c 7;
        Obs.Registry.set_hook r None;
        Alcotest.(check int) "hook consulted" 1 !calls;
        Alcotest.(check bool)
          "update applied directly" true
          (Obs.Registry.snapshot r = [ ("c", Obs.Registry.Counter 7) ]));
    tc "apply bypasses an installed capturing hook" (fun () ->
        (* Replaying captured ops while the hook is still installed must
           never re-enter the hook. *)
        let r = Obs.Registry.create () in
        let c = Obs.Registry.counter r ~name:"c" in
        let calls = ref 0 and ops = ref [] in
        Obs.Registry.set_hook r
          (Some
             (fun op ->
               incr calls;
               ops := op :: !ops;
               true));
        Obs.Registry.incr c;
        List.iter Obs.Registry.apply (List.rev !ops);
        Obs.Registry.set_hook r None;
        Alcotest.(check int) "hook saw only the original update" 1 !calls;
        Alcotest.(check bool)
          "applied exactly once" true
          (Obs.Registry.snapshot r = [ ("c", Obs.Registry.Counter 1) ]));
    tc "noop_op applies without changing anything" (fun () ->
        let r = Obs.Registry.create () in
        Obs.Registry.add (Obs.Registry.counter r ~name:"c") 2;
        let before = Obs.Registry.snapshot r in
        Obs.Registry.apply Obs.Registry.noop_op;
        Alcotest.(check bool) "snapshot unchanged" true (Obs.Registry.snapshot r = before));
    tc "gauge and histogram updates round-trip through capture" (fun () ->
        let r = Obs.Registry.create () in
        let g = Obs.Registry.gauge r ~name:"g" in
        let h = Obs.Registry.histogram r ~name:"h" ~buckets:[ 10 ] in
        let ops = ref [] in
        Obs.Registry.set_hook r
          (Some
             (fun op ->
               ops := op :: !ops;
               true));
        Obs.Registry.set_max g 9;
        Obs.Registry.set_max g 3;
        Obs.Registry.observe h 4;
        Obs.Registry.observe h 25;
        Obs.Registry.set_hook r None;
        List.iter Obs.Registry.apply (List.rev !ops);
        (match Obs.Registry.snapshot r with
        | [ ("g", Obs.Registry.Gauge v); ("h", Obs.Registry.Histogram hv) ] ->
          Alcotest.(check int) "set_max high-water survives replay" 9 v;
          Alcotest.(check (list int)) "bucket + overflow" [ 1; 1 ] hv.counts;
          Alcotest.(check int) "sum" 29 hv.sum;
          Alcotest.(check int) "max" 25 hv.max_value
        | _ -> Alcotest.fail "expected one gauge and one histogram"));
  ]

(* ------------------------------------------------------------------ *)
(* Quantile estimation from bucket counts                              *)
(* ------------------------------------------------------------------ *)

let quantile_tests =
  let q ~buckets ~counts ~count ~max_value p =
    Obs.Registry.histogram_quantile ~buckets ~counts ~count ~max_value p
  in
  [
    tc "empty histogram reports 0 at every quantile" (fun () ->
        List.iter
          (fun p ->
            Alcotest.(check int) "zero" 0
              (q ~buckets:[ 10; 100 ] ~counts:[ 0; 0; 0 ] ~count:0 ~max_value:0 p))
          [ 0.5; 0.99; 0.999 ]);
    tc "estimate is the bucket bound, clamped to the max observation" (fun () ->
        (* Four observations all <= 7 land in the [10] bucket: the bound
           over-estimates, the max clamps it back. *)
        Alcotest.(check int) "clamped" 7
          (q ~buckets:[ 10 ] ~counts:[ 4; 0 ] ~count:4 ~max_value:7 0.5));
    tc "rank sits exactly on a bucket boundary" (fun () ->
        let buckets = [ 10; 20 ] and counts = [ 5; 5; 0 ] in
        (* rank ceil(0.5 * 10) = 5 is the last observation of the first
           bucket; one observation later crosses into the second. *)
        Alcotest.(check int) "p50 on the boundary" 10
          (q ~buckets ~counts ~count:10 ~max_value:20 0.5);
        Alcotest.(check int) "just past the boundary" 20
          (q ~buckets ~counts ~count:10 ~max_value:20 0.51));
    tc "rank clamps to 1 at q = 0" (fun () ->
        Alcotest.(check int) "first bucket" 10
          (q ~buckets:[ 10; 20 ] ~counts:[ 5; 5; 0 ] ~count:10 ~max_value:20 0.0));
    tc "overflow bucket reports the max observation" (fun () ->
        Alcotest.(check int) "overflow" 250
          (q ~buckets:[ 10 ] ~counts:[ 1; 1 ] ~count:2 ~max_value:250 0.99));
    tc "p999 needs one in a thousand past the bucket" (fun () ->
        let buckets = [ 10; 20 ] in
        Alcotest.(check int) "999/1 stays in the first bucket" 10
          (q ~buckets ~counts:[ 999; 1; 0 ] ~count:1000 ~max_value:20 0.999);
        Alcotest.(check int) "998/2 crosses" 20
          (q ~buckets ~counts:[ 998; 2; 0 ] ~count:1000 ~max_value:20 0.999));
  ]

(* ------------------------------------------------------------------ *)
(* Golden exports                                                      *)
(* ------------------------------------------------------------------ *)

(* The exact run behind test/golden/trace_small.* — regenerate with
     ecfd trace -p ec -d scripted-stable -n 3 --seed 2 --horizon 200 -f FMT
   after any intentional exporter or trace change, and review the diff. *)
let golden_trace () =
  let r =
    Scenario.run_consensus
      ~net:{ (Scenario.chaotic_net ~seed:2 ~gst:0 ()) with delta = 8 }
      ~crashes:(Sim.Fault.crashes []) ~horizon:200 ~n:3
      ~detector:(Scenario.Scripted_stable 0)
      ~protocol:(Scenario.Ec Ecfd.Ec_consensus.default_params) ()
  in
  r.Scenario.trace

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The double-crash heartbeat run behind golden/TRACE_e4.jsonl (see
   test_qos.ml for the command that writes it), run in-process: unlike
   golden_trace it has crashes, drops and a detector's views. *)
let e4_trace () =
  let r =
    Scenario.run_consensus
      ~net:{ (Scenario.chaotic_net ~seed:4 ~gst:100 ()) with delta = 8 }
      ~crashes:(Sim.Fault.crashes [ (1, 150); (3, 320) ])
      ~horizon:500 ~n:4 ~detector:Scenario.Heartbeat_p
      ~protocol:(Scenario.Ec Ecfd.Ec_consensus.default_params) ()
  in
  r.Scenario.trace

(* Minor words one export of [trace] allocates per record, into a buffer
   already large enough for all of it. *)
let export_words_per_record export trace ~bytes =
  let buf = Buffer.create bytes in
  let w0 = Gc.minor_words () in
  export buf trace;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "the buffer was large enough" bytes (Buffer.length buf);
  words /. float_of_int (Sim.Trace.length trace)

let golden_tests =
  [
    tc "JSONL export matches the golden file byte-for-byte" (fun () ->
        Alcotest.(check string)
          "golden/trace_small.jsonl"
          (read_file "golden/trace_small.jsonl")
          (Sim.Trace_export.jsonl_string (golden_trace ())));
    tc "Chrome export matches the golden file byte-for-byte" (fun () ->
        Alcotest.(check string)
          "golden/trace_small.chrome.json"
          (read_file "golden/trace_small.chrome.json")
          (Sim.Trace_export.chrome_string (golden_trace ())));
    tc "golden JSONL parses line-by-line in the query core" (fun () ->
        let events = Tracequery_core.Trace_file.load "golden/trace_small.jsonl" in
        Alcotest.(check bool) "non-empty" true (events <> []);
        List.iteri
          (fun i (e : Sim.Trace.event) -> Alcotest.(check int) "seq is dense" i e.seq)
          events);
    tc "JSONL export of the e4 crash run matches golden/TRACE_e4.jsonl" (fun () ->
        Alcotest.(check string)
          "golden/TRACE_e4.jsonl" (read_file "golden/TRACE_e4.jsonl")
          (Sim.Trace_export.jsonl_string (e4_trace ())));
    tc "Chrome export of the e4 crash run matches golden/TRACE_e4.chrome.json" (fun () ->
        Alcotest.(check string)
          "golden/TRACE_e4.chrome.json"
          (read_file "golden/TRACE_e4.chrome.json")
          (Sim.Trace_export.chrome_string (e4_trace ())));
    tc "exporting the e4 crash run allocates at most 1 minor word per record" (fun () ->
        let trace = e4_trace () in
        List.iter
          (fun (what, export, golden) ->
            let per_record =
              export_words_per_record export trace
                ~bytes:(String.length (read_file golden))
            in
            Printf.printf "%s: %.3f minor words per record\n" what per_record;
            if per_record > 1.0 then
              Alcotest.failf "%s: %.3f minor words per record" what per_record)
          [
            ("jsonl", Sim.Trace_export.jsonl, "golden/TRACE_e4.jsonl");
            ("chrome", Sim.Trace_export.chrome, "golden/TRACE_e4.chrome.json");
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* JSONL reader: the exact inverse of the exporter                     *)
(* ------------------------------------------------------------------ *)

let reencode events =
  let buf = Buffer.create 4096 in
  List.iter (Sim.Trace_export.jsonl_event buf) events;
  Buffer.contents buf

(* One event of every body kind, with strings that need escaping: a
   quote, a backslash, a newline, a tab and control characters. *)
let every_kind_trace () =
  let t = Sim.Trace.create () in
  let odd = "q\"uote \\ back\nnew\ttab\001ctl\031" in
  List.iter (Sim.Trace.record t)
    [
      Sim.Trace.Propose { at = 0; pid = 0; value = 7 };
      Send { at = 1; src = 0; dst = 2; msg = 0; component = odd; tag = "t\"ag" };
      Deliver { at = 3; src = 0; dst = 2; msg = 0; component = odd; tag = "t\"ag" };
      Send { at = 4; src = 2; dst = 1; msg = 1; component = "c"; tag = "x" };
      Drop { at = 5; src = 2; dst = 1; msg = 1; component = "c"; tag = "x"; reason = odd };
      Crash { at = 6; pid = 1 };
      Fd_view
        {
          at = 7;
          pid = 0;
          component = "fd.x";
          suspected = Sim.Pid.set_of_list [ 2; 1 ];
          trusted = Some 0;
        };
      Fd_view
        { at = 8; pid = 2; component = "fd.x"; suspected = Sim.Pid.Set.empty; trusted = None };
      Note { at = 9; pid = 2; tag = "n\\ote"; detail = odd };
      Span_begin { at = 10; pid = 0; component = "consensus.ec"; span = 0; name = odd };
      Decide { at = 11; pid = 0; value = 7; round = 1 };
      Span_end { at = 12; pid = 0; component = "consensus.ec"; span = 0; name = odd };
    ];
  t

let with_temp_file contents f =
  let path = Filename.temp_file "ecfd_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      f path)

let load_error path =
  match Tracequery_core.Trace_file.load path with
  | _ -> Alcotest.fail "expected a load error"
  | exception Tracequery_core.Trace_file.Bad_trace msg -> msg

let trace_file_tests =
  [
    tc "decode then re-encode is the identity on the golden exports" (fun () ->
        List.iter
          (fun path ->
            let events = Tracequery_core.Trace_file.load path in
            Alcotest.(check string) path (read_file path) (reencode events);
            (* Re-recording the decoded bodies reproduces the stamps. *)
            let t = Sim.Trace.create () in
            List.iter (fun (e : Sim.Trace.event) -> Sim.Trace.record t e.body) events;
            Alcotest.(check string) (path ^ " re-recorded") (read_file path)
              (Sim.Trace_export.jsonl_string t))
          [ "golden/trace_small.jsonl"; "golden/TRACE_e4.jsonl" ]);
    tc "decode then re-encode is the identity on every event kind" (fun () ->
        let jsonl = Sim.Trace_export.jsonl_string (every_kind_trace ()) in
        let events =
          Tracequery_core.Trace_file.of_lines (String.split_on_char '\n' jsonl)
        in
        Alcotest.(check int) "12 events" 12 (List.length events);
        Alcotest.(check string) "re-encoded" jsonl (reencode events);
        Alcotest.(check bool)
          "the note keeps its escaped detail" true
          (List.exists
             (fun (e : Sim.Trace.event) ->
               match e.body with
               | Note { detail; _ } -> String.equal detail "q\"uote \\ back\nnew\ttab\001ctl\031"
               | _ -> false)
             events));
    tc "load errors name the physical line, past blank lines" (fun () ->
        let line seq = Printf.sprintf {|{"seq":%d,"lc":1,"type":"crash","at":0,"pid":0}|} seq in
        with_temp_file
          (String.concat "\n" [ line 0; ""; line 1; line 2; "{not json"; "" ])
          (fun path ->
            let msg = load_error path in
            Alcotest.(check bool)
              ("line 5 named: " ^ msg)
              true
              (String.starts_with ~prefix:"line 5:" msg));
        with_temp_file
          (String.concat "\n" [ line 0; ""; {|{"seq":1,"lc":1,"type":"bogus","at":0}|} ])
          (fun path ->
            Alcotest.(check string) "unknown type rejected" "line 3: unknown event type \"bogus\""
              (load_error path));
        with_temp_file
          {|{"seq":0,"lc":1,"type":"send","at":0,"src":0,"dst":-1,"msg":0}|}
          (fun path ->
            Alcotest.(check string) "negative pid rejected" "line 1: negative \"dst\""
              (load_error path)));
  ]

(* ------------------------------------------------------------------ *)
(* Query core on a crafted trace                                       *)
(* ------------------------------------------------------------------ *)

(* Two processes exchange a request/ack around a decide, with an
   unrelated note at p3 that must stay out of every cone. *)
let crafted_lines =
  [
    {|{"seq":0,"lc":1,"type":"propose","at":0,"pid":0,"component":"consensus.ec","value":7}|};
    {|{"seq":1,"lc":2,"type":"send","at":1,"src":0,"dst":1,"msg":0,"component":"consensus.ec","tag":"round1"}|};
    {|{"seq":2,"lc":1,"type":"note","at":1,"pid":2,"component":"fd.x","detail":"noise"}|};
    {|{"seq":3,"lc":3,"type":"deliver","at":3,"src":0,"dst":1,"msg":0,"component":"consensus.ec","tag":"round1"}|};
    {|{"seq":4,"lc":4,"type":"send","at":4,"src":1,"dst":0,"msg":1,"component":"consensus.ec","tag":"ack"}|};
    {|{"seq":5,"lc":5,"type":"deliver","at":6,"src":1,"dst":0,"msg":1,"component":"consensus.ec","tag":"ack"}|};
    {|{"seq":6,"lc":6,"type":"decide","at":7,"pid":0,"component":"consensus.ec","value":7,"round":1}|};
  ]

let crafted () =
  List.mapi
    (fun i line -> Tracequery_core.Trace_file.event_of_line ~lineno:(i + 1) line)
    crafted_lines

let seqs events = List.map (fun (e : Sim.Trace.event) -> e.seq) events

let query_tests =
  [
    tc "ancestry follows program order and message edges, not noise" (fun () ->
        let events = crafted () in
        Alcotest.(check (list int))
          "cone of the decide"
          [ 0; 1; 3; 4; 5; 6 ]
          (seqs (Tracequery_core.Query.ancestry events ~seq:6)));
    tc "ancestry of a mid-trace event stops at its past" (fun () ->
        Alcotest.(check (list int))
          "cone of the first deliver"
          [ 0; 1; 3 ]
          (seqs (Tracequery_core.Query.ancestry (crafted ()) ~seq:3)));
    tc "filter by pid matches link endpoints; by time window" (fun () ->
        let events = crafted () in
        Alcotest.(check (list int))
          "everything involving p2"
          [ 1; 3; 4; 5 ]
          (seqs (Tracequery_core.Query.filter ~pid:1 events));
        Alcotest.(check (list int))
          "t in [3,6]"
          [ 3; 4; 5 ]
          (seqs (Tracequery_core.Query.filter ~from_t:3 ~to_t:6 events)));
    tc "diff: identical, divergent line, and length mismatch" (fun () ->
        let open Tracequery_core.Query in
        Alcotest.(check bool)
          "identical" true
          (diff_lines crafted_lines crafted_lines = None);
        (match diff_lines crafted_lines (List.rev crafted_lines) with
        | Some { line = 1; _ } -> ()
        | _ -> Alcotest.fail "expected divergence at line 1");
        match diff_lines crafted_lines (crafted_lines @ [ "{}" ]) with
        | Some { line = 8; left = None; right = Some "{}" } -> ()
        | _ -> Alcotest.fail "expected the right file to run long at line 8");
    tc "schema check flags missing fields and type mismatches" (fun () ->
        let schema =
          Json_min.parse
            {|{"type":"object","required":["seq"],"properties":{"seq":{"type":"integer","minimum":0}}}|}
        in
        let check s =
          Tracequery_core.Schema.check ~schema (Json_min.parse s)
        in
        Alcotest.(check int) "valid line" 0 (List.length (check {|{"seq":3}|}));
        Alcotest.(check bool) "missing seq flagged" true (check {|{"lc":1}|} <> []);
        Alcotest.(check bool) "wrong type flagged" true (check {|{"seq":"x"}|} <> []);
        Alcotest.(check bool) "negative flagged" true (check {|{"seq":-1}|} <> []));
  ]

let suites =
  [
    ("obs.registry", registry_tests);
    ("obs.hooks", hook_tests);
    ("obs.quantiles", quantile_tests);
    ("obs.golden_exports", golden_tests);
    ("obs.tracequery", query_tests);
    ("obs.trace_file", trace_file_tests);
  ]
