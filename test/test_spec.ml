(* Unit tests of the property checkers, on hand-built traces: the checkers
   are the judges of everything else, so they get direct scrutiny. *)

let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Synthetic traces                                                   *)
(* ------------------------------------------------------------------ *)

let comp = "fd.test"

let view ~at ~pid ?trusted suspected =
  Sim.Trace.Fd_view
    { at; pid; component = comp; suspected = Sim.Pid.set_of_list suspected; trusted }

let trace_of events =
  let t = Sim.Trace.create () in
  List.iter (Sim.Trace.record t) events;
  t

(* ------------------------------------------------------------------ *)
(* "Eventually forever" on finite traces, read through Fd_props        *)
(* ------------------------------------------------------------------ *)

(* n = 2, p2 crashed from the start: "p1 suspects p2" (strong
   completeness) is a signal whose value changes at p1's views. *)
let completeness_since views =
  let t =
    trace_of
      (Sim.Trace.Crash { at = 0; pid = 1 }
      :: List.map
           (fun (at, suspects) -> view ~at ~pid:0 ~trusted:0 (if suspects then [ 1 ] else []))
           views)
  in
  (Spec.Fd_props.strong_completeness (Spec.Fd_props.make_run ~component:comp ~n:2 t)).since

let eventually_tests =
  [
    tc "stabilization on a piecewise signal" (fun () ->
        Alcotest.(check (option int)) "stabilizes at 12" (Some 12)
          (completeness_since [ (0, false); (5, true); (9, false); (12, true); (20, true) ]));
    tc "false at the end means no stabilization" (fun () ->
        Alcotest.(check (option int)) "none" None (completeness_since [ (0, true); (10, false) ]));
    tc "true throughout stabilizes at the first instant" (fun () ->
        (* The first recorded view, not 0, dates a state that never changed. *)
        Alcotest.(check (option int)) "4" (Some 4) (completeness_since [ (4, true); (7, true) ]);
        let run =
          Spec.Fd_props.make_run ~component:comp ~n:1 (trace_of [ view ~at:4 ~pid:0 ~trusted:0 [] ])
        in
        Alcotest.(check (option int)) "accuracy, self included" (Some 4)
          (Spec.Fd_props.eventual_strong_accuracy run).since);
    tc "empty timeline never stabilizes" (fun () ->
        Alcotest.(check (option int)) "none" None (completeness_since []));
    tc "all / any combinators" (fun () ->
        (* p4 crashes; p1, p2, p3 suspect it from 3, 9 and 1. *)
        let run views =
          Spec.Fd_props.make_run ~component:comp ~n:4
            (trace_of
               (Sim.Trace.Crash { at = 0; pid = 3 }
               :: List.map (fun (pid, at) -> view ~at ~pid ~trusted:0 [ 3 ]) views))
        in
        let all_three = run [ (0, 3); (1, 9); (2, 1) ] in
        Alcotest.(check (option int)) "all picks the max" (Some 9)
          (Spec.Fd_props.strong_completeness all_three).since;
        Alcotest.(check (option int)) "any picks the min" (Some 1)
          (Spec.Fd_props.weak_completeness all_three).since;
        Alcotest.(check (option int)) "all with a failure" None
          (Spec.Fd_props.strong_completeness (run [ (0, 3); (2, 1) ])).since;
        let no_crash = Spec.Fd_props.make_run ~component:comp ~n:2 (trace_of []) in
        Alcotest.(check (option int)) "all of nothing is vacuous" (Some 0)
          (Spec.Fd_props.strong_completeness no_crash).since;
        let nobody_correct =
          Spec.Fd_props.make_run ~component:comp ~n:1
            (trace_of [ Sim.Trace.Crash { at = 0; pid = 0 } ])
        in
        Alcotest.(check (option int)) "any of nothing fails" None
          (Spec.Fd_props.leadership nobody_correct).since);
  ]

(* ------------------------------------------------------------------ *)
(* Fd_props on synthetic traces                                       *)
(* ------------------------------------------------------------------ *)

(* Scenario: n = 3; p3 crashes at t=10.  p1 and p2 eventually suspect it
   and trust each... p1. *)
let good_trace =
  trace_of
    [
      view ~at:0 ~pid:0 ~trusted:0 [];
      view ~at:0 ~pid:1 ~trusted:0 [];
      view ~at:0 ~pid:2 ~trusted:0 [];
      Sim.Trace.Crash { at = 10; pid = 2 };
      view ~at:12 ~pid:0 ~trusted:0 [ 2 ];
      view ~at:15 ~pid:1 ~trusted:0 [ 2 ];
    ]

let good_run = Spec.Fd_props.make_run ~component:comp ~n:3 good_trace

let fd_props_tests =
  [
    tc "correct/crashed partition" (fun () ->
        Alcotest.(check (list int)) "correct" [ 0; 1 ] (Spec.Fd_props.correct_processes good_run);
        Alcotest.(check (list int)) "crashed" [ 2 ] (Spec.Fd_props.crashed_processes good_run));
    tc "strong completeness holds with its stabilization time" (fun () ->
        let r = Spec.Fd_props.strong_completeness good_run in
        Alcotest.(check bool) "holds" true r.holds;
        Alcotest.(check (option int)) "since the later suspector" (Some 15) r.since);
    tc "accuracy holds (nobody suspects a correct process)" (fun () ->
        Alcotest.(check bool) "strong accuracy" true
          (Spec.Fd_props.eventual_strong_accuracy good_run).holds);
    tc "leadership holds on a common trusted process" (fun () ->
        Alcotest.(check bool) "holds" true (Spec.Fd_props.leadership good_run).holds;
        Alcotest.(check (option int)) "leader" (Some 0) (Spec.Fd_props.eventual_leader good_run));
    tc "the full class <>C is recognized" (fun () ->
        Alcotest.(check bool) "ec" true (Spec.Fd_props.satisfies_class Fd.Classes.Ec good_run));
    tc "strong completeness fails if one observer never suspects" (fun () ->
        let t =
          trace_of
            [
              view ~at:0 ~pid:0 ~trusted:0 [];
              view ~at:0 ~pid:1 ~trusted:0 [];
              view ~at:0 ~pid:2 ~trusted:0 [];
              Sim.Trace.Crash { at = 10; pid = 2 };
              view ~at:12 ~pid:0 ~trusted:0 [ 2 ];
              (* p2 (observer pid 1) never suspects. *)
            ]
        in
        let run = Spec.Fd_props.make_run ~component:comp ~n:3 t in
        Alcotest.(check bool) "strong fails" false (Spec.Fd_props.strong_completeness run).holds;
        Alcotest.(check bool) "weak holds" true (Spec.Fd_props.weak_completeness run).holds);
    tc "suspicion withdrawn at the end violates completeness" (fun () ->
        let t =
          trace_of
            [
              view ~at:0 ~pid:0 ~trusted:0 [];
              view ~at:0 ~pid:1 ~trusted:0 [];
              Sim.Trace.Crash { at = 10; pid = 1 };
              view ~at:12 ~pid:0 ~trusted:0 [ 1 ];
              view ~at:30 ~pid:0 ~trusted:0 [];
            ]
        in
        let run = Spec.Fd_props.make_run ~component:comp ~n:2 t in
        Alcotest.(check bool) "not permanent" false
          (Spec.Fd_props.strong_completeness run).holds);
    tc "accuracy fails on a permanent false suspicion" (fun () ->
        let t =
          trace_of
            [
              view ~at:0 ~pid:0 ~trusted:0 [ 1 ];
              view ~at:0 ~pid:1 ~trusted:0 [];
            ]
        in
        let run = Spec.Fd_props.make_run ~component:comp ~n:2 t in
        Alcotest.(check bool) "strong accuracy fails" false
          (Spec.Fd_props.eventual_strong_accuracy run).holds;
        (* ... but weak accuracy holds via p1, never suspected. *)
        Alcotest.(check bool) "weak accuracy holds" true
          (Spec.Fd_props.eventual_weak_accuracy run).holds);
    tc "leadership fails on split trust" (fun () ->
        let t =
          trace_of
            [
              view ~at:0 ~pid:0 ~trusted:0 [];
              view ~at:0 ~pid:1 ~trusted:1 [];
            ]
        in
        let run = Spec.Fd_props.make_run ~component:comp ~n:2 t in
        Alcotest.(check bool) "no common leader" false (Spec.Fd_props.leadership run).holds);
    tc "leadership fails when the common leader is crashed" (fun () ->
        let t =
          trace_of
            [
              Sim.Trace.Crash { at = 5; pid = 1 };
              view ~at:0 ~pid:0 ~trusted:1 [];
              view ~at:0 ~pid:2 ~trusted:1 [];
            ]
        in
        let run = Spec.Fd_props.make_run ~component:comp ~n:3 t in
        Alcotest.(check bool) "dead leader" false (Spec.Fd_props.leadership run).holds);
    tc "trusted-not-suspected detects violations" (fun () ->
        let t =
          trace_of
            [
              view ~at:0 ~pid:0 ~trusted:1 [ 1 ];
              view ~at:0 ~pid:1 ~trusted:1 [];
            ]
        in
        let run = Spec.Fd_props.make_run ~component:comp ~n:2 t in
        Alcotest.(check bool) "violated" false (Spec.Fd_props.trusted_not_suspected run).holds);
    tc "detection_time is the last suspector's instant" (fun () ->
        Alcotest.(check (option int)) "15" (Some 15)
          (Spec.Fd_props.detection_time good_run ~victim:2));
  ]

(* ------------------------------------------------------------------ *)
(* Consensus_props on synthetic traces                                *)
(* ------------------------------------------------------------------ *)

let propose ~at ~pid value = Sim.Trace.Propose { at; pid; value }
let decide ~at ~pid ~round value = Sim.Trace.Decide { at; pid; value; round }

let consensus_props_tests =
  [
    tc "a clean run has no violations" (fun () ->
        let t =
          trace_of
            [
              propose ~at:0 ~pid:0 7;
              propose ~at:0 ~pid:1 9;
              decide ~at:5 ~pid:0 ~round:1 9;
              decide ~at:6 ~pid:1 ~round:1 9;
            ]
        in
        Alcotest.(check int) "none" 0 (List.length (Spec.Consensus_props.check_all t ~n:2)));
    tc "termination: a silent correct process is reported" (fun () ->
        let t = trace_of [ propose ~at:0 ~pid:0 7; decide ~at:5 ~pid:0 ~round:1 7 ] in
        Alcotest.(check int) "one violation" 1
          (List.length (Spec.Consensus_props.termination t ~n:2)));
    tc "termination: crashed processes are excused" (fun () ->
        let t =
          trace_of
            [
              propose ~at:0 ~pid:0 7;
              Sim.Trace.Crash { at = 2; pid = 1 };
              decide ~at:5 ~pid:0 ~round:1 7;
            ]
        in
        Alcotest.(check int) "none" 0 (List.length (Spec.Consensus_props.termination t ~n:2)));
    tc "uniform agreement catches disagreement, even by a faulty process" (fun () ->
        let t =
          trace_of
            [
              propose ~at:0 ~pid:0 7;
              propose ~at:0 ~pid:1 8;
              decide ~at:4 ~pid:1 ~round:1 8;
              Sim.Trace.Crash { at = 5; pid = 1 };
              decide ~at:6 ~pid:0 ~round:2 7;
            ]
        in
        Alcotest.(check int) "one violation" 1
          (List.length (Spec.Consensus_props.uniform_agreement t)));
    tc "uniform integrity catches double decision" (fun () ->
        let t =
          trace_of
            [ propose ~at:0 ~pid:0 7; decide ~at:4 ~pid:0 ~round:1 7; decide ~at:5 ~pid:0 ~round:2 7 ]
        in
        Alcotest.(check int) "one violation" 1
          (List.length (Spec.Consensus_props.uniform_integrity t)));
    tc "validity catches an invented value" (fun () ->
        let t = trace_of [ propose ~at:0 ~pid:0 7; decide ~at:4 ~pid:0 ~round:1 13 ] in
        Alcotest.(check int) "one violation" 1 (List.length (Spec.Consensus_props.validity t)));
    tc "metrics" (fun () ->
        let t =
          trace_of
            [
              propose ~at:0 ~pid:0 7;
              decide ~at:4 ~pid:0 ~round:1 7;
              decide ~at:9 ~pid:1 ~round:3 7;
            ]
        in
        Alcotest.(check (option int)) "round" (Some 3) (Spec.Consensus_props.decision_round t);
        Alcotest.(check (option int)) "first" (Some 4) (Spec.Consensus_props.first_decision_time t);
        Alcotest.(check (option int)) "last" (Some 9) (Spec.Consensus_props.last_decision_time t));
  ]

(* ------------------------------------------------------------------ *)
(* Round_metrics                                                      *)
(* ------------------------------------------------------------------ *)

let send ~at ~tag = Sim.Trace.Send { at; src = 0; dst = 1; msg = 0; component = "c"; tag }

let round_metrics_tests =
  [
    tc "round parsing" (fun () ->
        Alcotest.(check (option int)) "r3" (Some 3) (Spec.Round_metrics.round_of_tag "ack.r3");
        Alcotest.(check (option int)) "plain" None (Spec.Round_metrics.round_of_tag "ack");
        Alcotest.(check (option int)) "dotted" None (Spec.Round_metrics.round_of_tag "a.b"));
    tc "per-round and per-tag aggregation" (fun () ->
        let t =
          trace_of
            [
              send ~at:0 ~tag:"est.r1";
              send ~at:1 ~tag:"est.r1";
              send ~at:2 ~tag:"ack.r1";
              send ~at:3 ~tag:"est.r2";
              Sim.Trace.Send { at = 4; src = 0; dst = 1; msg = 0; component = "other"; tag = "est.r1" };
            ]
        in
        Alcotest.(check (list (pair int int))) "by round" [ (1, 3); (2, 1) ]
          (Spec.Round_metrics.sends_by_round t ~component:"c");
        Alcotest.(check int) "round 1" 3 (Spec.Round_metrics.sends_in_round t ~component:"c" ~round:1);
        Alcotest.(check (list (pair string int))) "by tag" [ ("ack", 1); ("est", 2) ]
          (Spec.Round_metrics.sends_by_tag_in_round t ~component:"c" ~round:1));
  ]

(* ------------------------------------------------------------------ *)
(* Timeline rendering                                                 *)
(* ------------------------------------------------------------------ *)

let timeline_tests =
  [
    tc "leadership cells show self, peer, crash" (fun () ->
        let t =
          trace_of
            [
              view ~at:0 ~pid:0 ~trusted:0 [];
              view ~at:0 ~pid:1 ~trusted:0 [];
              Sim.Trace.Crash { at = 50; pid = 0 };
              view ~at:60 ~pid:1 ~trusted:1 [];
            ]
        in
        let run = Spec.Fd_props.make_run ~component:comp ~n:2 t in
        let out = Spec.Timeline.render_leadership ~width:10 run ~horizon:100 in
        let lines = String.split_on_char '\n' out in
        let p1 = List.nth lines 0 and p2 = List.nth lines 1 in
        Alcotest.(check bool) "p1 leads itself then crashes" true
          (String.length p1 > 8
          && String.contains p1 '*'
          && String.contains p1 'X');
        Alcotest.(check bool) "p2 trusts p1 then itself" true
          (String.contains p2 '1' && String.contains p2 '*'));
    tc "suspicion cells count suspects" (fun () ->
        let t =
          trace_of
            [ view ~at:0 ~pid:0 ~trusted:0 [ 1 ]; view ~at:0 ~pid:1 ~trusted:0 [] ]
        in
        let run = Spec.Fd_props.make_run ~component:comp ~n:2 t in
        let out = Spec.Timeline.render_suspicions ~width:8 run ~horizon:80 in
        let lines = String.split_on_char '\n' out in
        Alcotest.(check bool) "p1 shows 1" true (String.contains (List.nth lines 0) '1');
        Alcotest.(check bool) "p2 shows 0" true (String.contains (List.nth lines 1) '0'));
    tc "decision cells move . -> p -> D" (fun () ->
        let t =
          trace_of [ propose ~at:10 ~pid:0 7; decide ~at:50 ~pid:0 ~round:1 7 ]
        in
        let out = Spec.Timeline.render_decisions ~width:10 t ~n:1 ~horizon:100 in
        let line = List.nth (String.split_on_char '\n' out) 0 in
        (* keep only the cells between the pipes: the label also has a 'p' *)
        let bar = String.index line '|' in
        let row = String.sub line (bar + 1) (String.rindex line '|' - bar - 1) in
        (* columns: 0 '.', 1.. 'p', 5.. 'D' *)
        Alcotest.(check bool) "shape" true
          (String.contains row '.' && String.contains row 'p' && String.contains row 'D');
        let dot = String.index row '.' and p = String.index row 'p' and d = String.index row 'D' in
        Alcotest.(check bool) "ordered" true (dot < p && p < d));
    tc "rows are horizon-aligned and one per process" (fun () ->
        let t =
          trace_of [ view ~at:0 ~pid:0 ~trusted:0 []; view ~at:0 ~pid:1 ~trusted:0 [] ]
        in
        let run = Spec.Fd_props.make_run ~component:comp ~n:2 t in
        let out = Spec.Timeline.render_leadership ~width:20 run ~horizon:100 in
        let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' out) in
        Alcotest.(check int) "2 rows + axis" 3 (List.length lines));
  ]

(* ------------------------------------------------------------------ *)
(* Link_metrics                                                       *)
(* ------------------------------------------------------------------ *)

let send_on ~at ~src ~dst ~component =
  Sim.Trace.Send { at; src; dst; msg = 0; component; tag = "x" }

let link_metrics_tests =
  [
    tc "active_links: window and component filtering, dedup, order" (fun () ->
        let t =
          trace_of
            [
              send_on ~at:5 ~src:0 ~dst:1 ~component:"a";
              send_on ~at:6 ~src:0 ~dst:1 ~component:"a";
              send_on ~at:7 ~src:1 ~dst:0 ~component:"a";
              send_on ~at:8 ~src:2 ~dst:0 ~component:"b";
              send_on ~at:99 ~src:3 ~dst:0 ~component:"a";
            ]
        in
        Alcotest.(check (list (pair int int)))
          "deduped, in-window, component a" [ (0, 1); (1, 0) ]
          (Spec.Link_metrics.active_links t ~components:[ "a" ] ~from_t:0 ~to_t:50));
    tc "star_of is the 2(n-1) leader star" (fun () ->
        let star = Spec.Link_metrics.star_of ~leader:1 ~n:3 in
        Alcotest.(check (list (pair int int))) "star"
          [ (0, 1); (1, 0); (1, 2); (2, 1) ]
          star);
  ]

(* ------------------------------------------------------------------ *)
(* Clock_props                                                        *)
(* ------------------------------------------------------------------ *)

let n_violations = List.length

let clock_props_tests =
  [
    tc "recorded traces are causally consistent" (fun () ->
        let t = Sim.Trace.create () in
        Sim.Trace.record t (Sim.Trace.Propose { at = 0; pid = 0; value = 7 });
        Sim.Trace.record t
          (Sim.Trace.Send { at = 1; src = 0; dst = 1; msg = 5; component = "c"; tag = "x" });
        Sim.Trace.record t
          (Sim.Trace.Deliver { at = 3; src = 0; dst = 1; msg = 5; component = "c"; tag = "x" });
        Sim.Trace.record t (Sim.Trace.Crash { at = 4; pid = 1 });
        Alcotest.(check int) "clean" 0 (n_violations (Spec.Clock_props.check t)));
    tc "a full consensus run is causally consistent" (fun () ->
        let r =
          Scenario.run_consensus ~net:{ Scenario.default_net with seed = 2 } ~n:5
            ~detector:(Scenario.Scripted_stable 0)
            ~protocol:(Scenario.Ec Ecfd.Ec_consensus.default_params) ()
        in
        Alcotest.(check (list string)) "clean" []
          (List.map
             (Format.asprintf "%a" Spec.Clock_props.pp_violation)
             (Spec.Clock_props.check r.trace)));
    tc "deliver stamped at or before its send is flagged" (fun () ->
        let events =
          [
            {
              Sim.Trace.seq = 0;
              lc = 4;
              body = Sim.Trace.Send { at = 1; src = 0; dst = 1; msg = 9; component = "c"; tag = "x" };
            };
            {
              Sim.Trace.seq = 1;
              lc = 4;
              body =
                Sim.Trace.Deliver { at = 2; src = 0; dst = 1; msg = 9; component = "c"; tag = "x" };
            };
          ]
        in
        match Spec.Clock_props.check_events events with
        | [ Spec.Clock_props.Causality_violation { msg = 9; send_lc = 4; deliver_lc = 4 } ] -> ()
        | vs ->
          Alcotest.failf "expected one causality violation, got: %s"
            (String.concat "; "
               (List.map (Format.asprintf "%a" Spec.Clock_props.pp_violation) vs)));
    tc "per-process clock regression is flagged" (fun () ->
        let events =
          [
            { Sim.Trace.seq = 0; lc = 5; body = Sim.Trace.Crash { at = 1; pid = 2 } };
            { Sim.Trace.seq = 1; lc = 3; body = Sim.Trace.Propose { at = 2; pid = 2; value = 1 } };
          ]
        in
        match Spec.Clock_props.check_events events with
        | [ Spec.Clock_props.Clock_regression { pid = 2; seq = 1; lc = 3; prev_lc = 5 } ] -> ()
        | vs -> Alcotest.failf "expected one regression, got %d violations" (List.length vs));
    tc "unmatched deliver and broken seq are flagged" (fun () ->
        let events =
          [
            {
              Sim.Trace.seq = 0;
              lc = 1;
              body =
                Sim.Trace.Deliver { at = 1; src = 0; dst = 1; msg = 7; component = "c"; tag = "x" };
            };
            { Sim.Trace.seq = 2; lc = 2; body = Sim.Trace.Crash { at = 2; pid = 0 } };
          ]
        in
        let vs = Spec.Clock_props.check_events events in
        Alcotest.(check bool) "unmatched deliver flagged" true
          (List.exists
             (function Spec.Clock_props.Unmatched_deliver { msg = 7; _ } -> true | _ -> false)
             vs);
        Alcotest.(check bool) "seq gap flagged" true
          (List.exists
             (function Spec.Clock_props.Nonmonotone_seq { seq = 2; prev = 0 } -> true | _ -> false)
             vs));
  ]

(* The Hashtbl implementation [Clock_props] had before it moved to
   {!Sim.Id_table}, kept verbatim as the reference the property below
   compares against. *)
module Clock_model = struct
  open Spec.Clock_props

  type state = {
    mutable prev_seq : int;
    last_lc : (Sim.Pid.t, int) Hashtbl.t;
    send_lc : (int, int) Hashtbl.t;  (** Message id -> the send's Lamport stamp. *)
    mutable rev_violations : violation list;
  }

  let flag st v = st.rev_violations <- v :: st.rev_violations

  let scan st (e : Sim.Trace.event) =
    if e.seq <> st.prev_seq + 1 then flag st (Nonmonotone_seq { seq = e.seq; prev = st.prev_seq });
    st.prev_seq <- e.seq;
    (match Sim.Trace.pid_of e.body with
    | None -> ()
    | Some pid ->
      (match Hashtbl.find_opt st.last_lc pid with
      | Some prev_lc when e.lc <= prev_lc ->
        flag st (Clock_regression { pid; seq = e.seq; lc = e.lc; prev_lc })
      | Some _ | None -> ());
      Hashtbl.replace st.last_lc pid e.lc);
    match e.body with
    | Sim.Trace.Send { msg; _ } -> Hashtbl.replace st.send_lc msg e.lc
    | Sim.Trace.Deliver { msg; _ } -> (
      match Hashtbl.find_opt st.send_lc msg with
      | None -> flag st (Unmatched_deliver { msg; seq = e.seq })
      | Some send_lc ->
        if send_lc >= e.lc then flag st (Causality_violation { msg; send_lc; deliver_lc = e.lc }))
    | _ -> ()

  let fresh () =
    { prev_seq = -1; last_lc = Hashtbl.create 16; send_lc = Hashtbl.create 64; rev_violations = [] }

  let check_events events =
    let st = fresh () in
    List.iter (scan st) events;
    List.rev st.rev_violations
end

(* Hand-built event lists that stress what the model's hashing made free:
   message ids that are sparse, negative, huge or repeated (so a Deliver
   may follow the id's Drop, repeat, or match nothing), pids with gaps
   and a negative one, and seq steps that skip, stall or go back. *)
let clock_events_gen =
  let open QCheck2.Gen in
  let msg =
    frequency
      [
        (6, int_range 0 6);
        (1, int_range (-3) (-1));
        (1, oneofl [ 100; 1_000_000; max_int ]);
      ]
  in
  let pid = oneofl [ 0; 1; 2; 5; 9; -1 ] in
  let lc = int_range (-2) 12 in
  let body =
    frequency
      [
        ( 4,
          map3
            (fun src dst msg ->
              Sim.Trace.Send { at = 0; src; dst; msg; component = "c"; tag = "x" })
            pid pid msg );
        ( 4,
          map3
            (fun src dst msg ->
              Sim.Trace.Deliver { at = 0; src; dst; msg; component = "c"; tag = "x" })
            pid pid msg );
        ( 2,
          map3
            (fun src dst msg ->
              Sim.Trace.Drop { at = 0; src; dst; msg; component = "c"; tag = "x"; reason = "r" })
            pid pid msg );
        (1, map (fun pid -> Sim.Trace.Crash { at = 0; pid }) pid);
        (1, map (fun pid -> Sim.Trace.Propose { at = 0; pid; value = 0 }) pid);
        (1, map (fun pid -> Sim.Trace.Note { at = 0; pid; tag = "t"; detail = "" }) pid);
        ( 1,
          map
            (fun pid -> Sim.Trace.Span_begin { at = 0; pid; component = "c"; span = 0; name = "s" })
            pid );
      ]
  in
  let seq_step = frequency [ (8, pure 1); (1, pure 0); (1, pure 2); (1, pure (-1)) ] in
  list_size (int_range 0 60) (triple seq_step lc body) >|= fun steps ->
  List.rev
    (snd
       (List.fold_left
          (fun (seq, acc) (step, lc, body) ->
            let seq = seq + step in
            (seq, { Sim.Trace.seq; lc; body } :: acc))
          (-1, []) steps))

let clock_differential_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500 ~name:"check_events equals the Hashtbl model"
         ~print:(fun events ->
           String.concat "\n" (List.map (Format.asprintf "%a" Sim.Trace.pp_event) events))
         clock_events_gen
         (fun events -> Spec.Clock_props.check_events events = Clock_model.check_events events));
    tc "model agreement on a Deliver after a Drop, a repeat and an unmatched id" (fun () ->
        let ev seq lc body = { Sim.Trace.seq; lc; body } in
        let send msg = Sim.Trace.Send { at = 0; src = 0; dst = 1; msg; component = "c"; tag = "x" } in
        let deliver msg = Sim.Trace.Deliver { at = 0; src = 0; dst = 1; msg; component = "c"; tag = "x" } in
        let drop msg =
          Sim.Trace.Drop { at = 0; src = 0; dst = 1; msg; component = "c"; tag = "x"; reason = "r" }
        in
        let events =
          [
            ev 0 5 (send 1_000_000);
            ev 1 5 (drop 1_000_000);
            ev 2 4 (deliver 1_000_000);
            ev 3 6 (deliver 1_000_000);
            ev 5 7 (deliver (-4));
            ev 6 1 (send (-4));
            ev 7 8 (deliver (-4));
          ]
        in
        let shown vs = List.map (Format.asprintf "%a" Spec.Clock_props.pp_violation) vs in
        Alcotest.(check (list string)) "same violations"
          (shown (Clock_model.check_events events))
          (shown (Spec.Clock_props.check_events events));
        Alcotest.(check int) "violations found" 4 (List.length (Spec.Clock_props.check_events events)));
  ]

(* ------------------------------------------------------------------ *)
(* Fd_props against the evaluator it replaced                         *)
(* ------------------------------------------------------------------ *)

(* [Eventually] and [Fd_props] as they were before [Fd_props] became a
   reading of the QoS fold, kept verbatim as the reference the property
   below compares against.  The one change: [of_views] reads the views
   with [Sim.Trace.iter], because [Trace.fd_views] is gone. *)
module Eventually_model = struct
  type 'a timeline = (Sim.Sim_time.t * 'a) list

  let of_views ~component trace ~pid =
    let views = ref [] in
    Sim.Trace.iter trace (fun e ->
        match e.Sim.Trace.body with
        | Sim.Trace.Fd_view { at; pid = p; component = c; suspected; trusted }
          when String.equal c component && Sim.Pid.equal p pid ->
          views := (at, { Fd.Fd_view.suspected; trusted }) :: !views
        | _ -> ());
    List.rev !views

  let stabilization pred timeline =
    (* Scan forward, remembering the start of the current all-true suffix. *)
    let rec scan current = function
      | [] -> current
      | (at, v) :: rest ->
        if pred v then scan (match current with None -> Some at | Some _ -> current) rest
        else scan None rest
    in
    scan None timeline

  let holds_eventually pred timeline = Option.is_some (stabilization pred timeline)

  let all results =
    List.fold_left
      (fun acc r ->
        match (acc, r) with
        | Some a, Some b -> Some (Sim.Sim_time.max a b)
        | _, None | None, _ -> None)
      (Some Sim.Sim_time.zero) results

  let any results =
    List.fold_left
      (fun acc r ->
        match (acc, r) with
        | Some a, Some b -> Some (Sim.Sim_time.min a b)
        | Some a, None -> Some a
        | None, other -> other)
      None results
end

module Fd_model = struct
  module Eventually = Eventually_model

  type report = Spec.Fd_props.report = {
    holds : bool;
    since : Sim.Sim_time.t option;
  }

  type run = {
    trace : Sim.Trace.t;
    component : string;
    n : int;
  }

  let make_run ~component ~n trace = { trace; component; n }

  let crashed_set run = Sim.Pid.set_of_list (List.map fst (Sim.Trace.crashes run.trace))

  let correct_processes run =
    let crashed = crashed_set run in
    List.filter (fun p -> not (Sim.Pid.Set.mem p crashed)) (Sim.Pid.all ~n:run.n)

  let crashed_processes run = Sim.Pid.Set.elements (crashed_set run)

  let timeline run p = Eventually.of_views ~component:run.component run.trace ~pid:p

  let report_of_since since = { holds = Option.is_some since; since }

  (* "For every correct observer p, [pred q] stabilizes on p's views", for
     every q in [targets]; conjunction over all pairs. *)
  let for_all_pairs run ~targets pred =
    let observers = correct_processes run in
    Eventually.all
      (List.concat_map
         (fun p ->
           let tl = timeline run p in
           List.map (fun q -> Eventually.stabilization (pred q) tl) targets)
         observers)

  let suspected_in q (v : Fd.Fd_view.t) = Sim.Pid.Set.mem q v.Fd.Fd_view.suspected

  let strong_completeness run =
    report_of_since (for_all_pairs run ~targets:(crashed_processes run) suspected_in)

  let weak_completeness run =
    let observers = correct_processes run in
    let per_victim q =
      Eventually.any
        (List.map (fun p -> Eventually.stabilization (suspected_in q) (timeline run p)) observers)
    in
    report_of_since (Eventually.all (List.map per_victim (crashed_processes run)))

  let eventual_strong_accuracy run =
    let correct = correct_processes run in
    report_of_since
      (for_all_pairs run ~targets:correct (fun q v -> not (suspected_in q v)))

  let eventual_weak_accuracy run =
    let correct = correct_processes run in
    let for_leader l =
      Eventually.all
        (List.map
           (fun p -> Eventually.stabilization (fun v -> not (suspected_in l v)) (timeline run p))
           correct)
    in
    report_of_since (Eventually.any (List.map for_leader correct))

  let leadership run =
    let correct = correct_processes run in
    let trusts l (v : Fd.Fd_view.t) = Option.equal Sim.Pid.equal v.Fd.Fd_view.trusted (Some l) in
    let for_leader l =
      Eventually.all
        (List.map (fun p -> Eventually.stabilization (trusts l) (timeline run p)) correct)
    in
    report_of_since (Eventually.any (List.map for_leader correct))

  let trusted_not_suspected run =
    let coherent (v : Fd.Fd_view.t) =
      match v.Fd.Fd_view.trusted with
      | None -> false
      | Some l -> not (Sim.Pid.Set.mem l v.Fd.Fd_view.suspected)
    in
    report_of_since
      (Eventually.all
         (List.map
            (fun p -> Eventually.stabilization coherent (timeline run p))
            (correct_processes run)))

  let check property run =
    match (property : Fd.Classes.property) with
    | Strong_completeness -> strong_completeness run
    | Weak_completeness -> weak_completeness run
    | Eventual_strong_accuracy -> eventual_strong_accuracy run
    | Eventual_weak_accuracy -> eventual_weak_accuracy run
    | Eventual_leadership -> leadership run
    | Trusted_not_suspected -> trusted_not_suspected run

  let satisfies_class cls run =
    List.for_all (fun p -> (check p run).holds) (Fd.Classes.properties cls)

  let class_matrix run = List.map (fun p -> (p, check p run)) Fd.Classes.all_properties

  let eventual_leader run =
    let correct = correct_processes run in
    let trusts l (v : Fd.Fd_view.t) = Option.equal Sim.Pid.equal v.Fd.Fd_view.trusted (Some l) in
    List.find_opt
      (fun l ->
        List.for_all
          (fun p -> Eventually.holds_eventually (trusts l) (timeline run p))
          correct)
      correct

  let detection_time run ~victim =
    for_all_pairs run ~targets:[ victim ] suspected_in

  let trusted_transitions run p =
    (* [(time, previous trusted, new trusted)] for every switch. *)
    let rec walk prev acc = function
      | [] -> List.rev acc
      | (at, (v : Fd.Fd_view.t)) :: rest ->
        let cur = v.Fd.Fd_view.trusted in
        if Option.equal Sim.Pid.equal cur prev then walk prev acc rest
        else walk cur ((at, prev, cur) :: acc) rest
    in
    match timeline run p with
    | [] -> []
    | (at0, v0) :: rest -> walk v0.Fd.Fd_view.trusted [ (at0, None, v0.Fd.Fd_view.trusted) ] rest

  let leader_changes run p = Stdlib.max 0 (List.length (trusted_transitions run p) - 1)

  let leader_changes_after run p ~after =
    List.length (List.filter (fun (at, _, _) -> at > after) (trusted_transitions run p))

  let false_suspicion_events_after run ~after =
    (* Transitions, at correct observers, where a correct process becomes
       newly suspected strictly after [after]. *)
    let correct = correct_processes run in
    let count_observer p =
      let rec walk prev acc = function
        | [] -> acc
        | (at, (v : Fd.Fd_view.t)) :: rest ->
          let fresh = Sim.Pid.Set.diff v.Fd.Fd_view.suspected prev in
          let wrong =
            Sim.Pid.Set.cardinal (Sim.Pid.Set.filter (fun q -> List.mem q correct) fresh)
          in
          walk v.Fd.Fd_view.suspected (if at > after then acc + wrong else acc) rest
      in
      walk Sim.Pid.Set.empty 0 (timeline run p)
    in
    List.fold_left (fun acc p -> acc + count_observer p) 0 correct

  let demotions_of_live_leaders run p =
    let crash_times = Sim.Trace.crashes run.trace in
    let alive_at q at =
      not (List.exists (fun (victim, t) -> Sim.Pid.equal victim q && t <= at) crash_times)
    in
    List.length
      (List.filter
         (fun (at, prev, _) ->
           match prev with Some q -> alive_at q at | None -> false)
         (trusted_transitions run p))
end

(* Crash and view streams, n in 1..6, that set every trap a reading of the
   fold could fall into against the per-observer timelines: a first view
   after 0, views at an already-crashed observer, self-suspicion, a first
   view trusting nobody, and repeated or same-instant views.  Times never
   decrease and pids stay in range; one step in ten is a view of another
   component, which both sides must ignore. *)
let fd_stream_gen =
  let open QCheck2.Gen in
  let* n = int_range 1 6 in
  let* leader = int_range 0 (n - 1) in
  let* start = int_range 0 5 in
  let pid = int_range 0 (n - 1) in
  let suspects =
    frequency
      [
        (3, pure `Crashed);
        (2, map (fun l -> `Set l) (list_size (int_range 0 n) pid));
        (2, pure `Same);
      ]
  in
  let trusts =
    frequency
      [ (3, pure `Leader); (1, pure `Nobody); (1, map (fun p -> `Pid p) pid); (2, pure `Same) ]
  in
  let step =
    frequency
      [
        (1, map (fun p -> `Crash p) pid);
        (8, map3 (fun p s t -> `View (p, s, t)) pid suspects trusts);
        (1, map (fun p -> `Other p) pid);
      ]
  in
  let gap = frequency [ (3, pure 0); (4, int_range 1 3); (1, int_range 4 20) ] in
  let+ steps = list_size (int_range 0 40) (pair gap step) in
  let last = Array.make n (Sim.Pid.Set.empty, None) in
  let crashed = ref Sim.Pid.Set.empty in
  let _, rev_events =
    List.fold_left
      (fun (at, acc) (gap, step) ->
        let at = at + gap in
        match step with
        | `Crash pid ->
          crashed := Sim.Pid.Set.add pid !crashed;
          (at, Sim.Trace.Crash { at; pid } :: acc)
        | `Other pid ->
          let other =
            Sim.Trace.Fd_view
              { at; pid; component = "fd.other"; suspected = !crashed; trusted = Some pid }
          in
          (at, other :: acc)
        | `View (pid, suspects, trusts) ->
          let prev_suspected, prev_trusted = last.(pid) in
          let suspected =
            match suspects with
            | `Crashed -> !crashed
            | `Set l -> Sim.Pid.set_of_list l
            | `Same -> prev_suspected
          in
          let trusted =
            match trusts with
            | `Leader -> Some leader
            | `Nobody -> None
            | `Pid q -> Some q
            | `Same -> prev_trusted
          in
          last.(pid) <- (suspected, trusted);
          (at, Sim.Trace.Fd_view { at; pid; component = comp; suspected; trusted } :: acc))
      (start, []) steps
  in
  (n, List.rev rev_events)

let print_fd_stream (n, events) =
  Printf.sprintf "n=%d\n%s" n
    (String.concat "\n" (List.map (Format.asprintf "%a" Sim.Trace.pp_body) events))

module type FD_PROPS = sig
  type run

  val make_run : component:string -> n:int -> Sim.Trace.t -> run
  val correct_processes : run -> Sim.Pid.t list
  val crashed_processes : run -> Sim.Pid.t list
  val strong_completeness : run -> Spec.Fd_props.report
  val weak_completeness : run -> Spec.Fd_props.report
  val eventual_strong_accuracy : run -> Spec.Fd_props.report
  val eventual_weak_accuracy : run -> Spec.Fd_props.report
  val leadership : run -> Spec.Fd_props.report
  val trusted_not_suspected : run -> Spec.Fd_props.report
  val check : Fd.Classes.property -> run -> Spec.Fd_props.report
  val satisfies_class : Fd.Classes.t -> run -> bool
  val class_matrix : run -> (Fd.Classes.property * Spec.Fd_props.report) list
  val eventual_leader : run -> Sim.Pid.t option
  val detection_time : run -> victim:Sim.Pid.t -> Sim.Sim_time.t option
  val leader_changes : run -> Sim.Pid.t -> int
  val leader_changes_after : run -> Sim.Pid.t -> after:Sim.Sim_time.t -> int
  val false_suspicion_events_after : run -> after:Sim.Sim_time.t -> int
  val demotions_of_live_leaders : run -> Sim.Pid.t -> int
end

(* Every exported reading, one line each, for every pid and for every
   [after] from before the first event to past the last. *)
let fd_readings (module F : FD_PROPS) ~n events =
  let run = F.make_run ~component:comp ~n (trace_of events) in
  let opt = function None -> "-" | Some t -> string_of_int t in
  let ints l = String.concat "," (List.map string_of_int l) in
  let report name (r : Spec.Fd_props.report) =
    Printf.sprintf "%s %b %s" name r.holds (opt r.since)
  in
  let last_at = List.fold_left (fun m e -> Stdlib.max m (Sim.Trace.time_of e)) 0 events in
  let afters = List.init (last_at + 3) (fun i -> i - 1) in
  let named = List.map (fun p -> (Fd.Classes.property_name p, p)) Fd.Classes.all_properties in
  List.concat
    [
      [
        "correct " ^ ints (F.correct_processes run);
        "crashed " ^ ints (F.crashed_processes run);
        report "strong_completeness" (F.strong_completeness run);
        report "weak_completeness" (F.weak_completeness run);
        report "eventual_strong_accuracy" (F.eventual_strong_accuracy run);
        report "eventual_weak_accuracy" (F.eventual_weak_accuracy run);
        report "leadership" (F.leadership run);
        report "trusted_not_suspected" (F.trusted_not_suspected run);
        "eventual_leader " ^ opt (F.eventual_leader run);
      ];
      List.map (fun (name, p) -> report ("check " ^ name) (F.check p run)) named;
      List.map
        (fun (p, r) -> report ("matrix " ^ Fd.Classes.property_name p) r)
        (F.class_matrix run);
      List.map
        (fun c -> Printf.sprintf "satisfies %s %b" (Fd.Classes.name c) (F.satisfies_class c run))
        Fd.Classes.all;
      List.concat_map
        (fun p ->
          [
            Printf.sprintf "detection_time p%d %s" p (opt (F.detection_time run ~victim:p));
            Printf.sprintf "leader_changes p%d %d" p (F.leader_changes run p);
            Printf.sprintf "demotions_of_live_leaders p%d %d" p (F.demotions_of_live_leaders run p);
          ]
          @ List.map
              (fun after ->
                Printf.sprintf "leader_changes_after p%d %d: %d" p after
                  (F.leader_changes_after run p ~after))
              afters)
        (Sim.Pid.all ~n);
      List.map
        (fun after ->
          Printf.sprintf "false_suspicion_events_after %d: %d" after
            (F.false_suspicion_events_after run ~after))
        afters;
    ]

(* The traps [fd_stream_gen] must set, as predicates on one stream. *)
let fd_traps =
  let views events =
    List.filter_map
      (function
        | Sim.Trace.Fd_view { at; pid; component; suspected; trusted }
          when String.equal component comp ->
          Some (at, pid, suspected, trusted)
        | _ -> None)
      events
  in
  let first_views events =
    List.filter_map
      (fun p -> List.find_opt (fun (_, q, _, _) -> q = p) (views events))
      (List.init 6 Fun.id)
  in
  [
    ( "first view after 0",
      fun events -> List.exists (fun (at, _, _, _) -> at > 0) (first_views events) );
    ( "view at a crashed observer",
      fun events ->
        let rec scan crashed = function
          | [] -> false
          | Sim.Trace.Crash { pid; _ } :: rest -> scan (pid :: crashed) rest
          | Sim.Trace.Fd_view { pid; component; _ } :: _
            when String.equal component comp && List.mem pid crashed ->
            true
          | _ :: rest -> scan crashed rest
        in
        scan [] events );
    ( "self-suspicion",
      fun events -> List.exists (fun (_, p, s, _) -> Sim.Pid.Set.mem p s) (views events) );
    ( "first view trusting nobody",
      fun events -> List.exists (fun (_, _, _, t) -> t = None) (first_views events) );
    ( "repeated or same-instant view",
      fun events ->
        let rec pairs = function
          | (at, p, s, t) :: ((at', p', s', t') :: _ as rest) ->
            (p = p' && (at = at' || (Sim.Pid.Set.equal s s' && t = t'))) || pairs rest
          | _ -> false
        in
        pairs (views events) );
  ]

let fd_differential_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:1000 ~name:"every reading equals the old evaluator"
         ~print:print_fd_stream fd_stream_gen (fun (n, events) ->
           let got = fd_readings (module Spec.Fd_props) ~n events in
           let want = fd_readings (module Fd_model) ~n events in
           List.equal String.equal got want
           || QCheck2.Test.fail_reportf "%s"
                (String.concat "\n"
                   (List.concat
                      (List.map2
                         (fun g w ->
                           if String.equal g w then [] else [ g ^ "  (model: " ^ w ^ ")" ])
                         got want)))));
    tc "the stream generator sets every trap" (fun () ->
        let streams =
          QCheck2.Gen.generate ~rand:(Random.State.make [| 17 |]) ~n:200 fd_stream_gen
        in
        List.iter
          (fun (trap, holds) ->
            let set = List.length (List.filter (fun (_, events) -> holds events) streams) in
            Alcotest.(check bool)
              (Printf.sprintf "%s in %d of 200 streams" trap set)
              true (set >= 50))
          fd_traps);
  ]

let suites =
  [
    ("spec.eventually", eventually_tests);
    ("spec.timeline", timeline_tests);
    ("spec.link_metrics", link_metrics_tests);
    ("spec.fd_props", fd_props_tests);
    ("spec.consensus_props", consensus_props_tests);
    ("spec.round_metrics", round_metrics_tests);
    ("spec.clock_props", clock_props_tests);
    ("spec.clock_model", clock_differential_tests);
    ("spec.fd_model", fd_differential_tests);
  ]
