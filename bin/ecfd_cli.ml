(* Command-line driver: run detectors, transformations and consensus
   protocols in the simulator from the shell.

     dune exec bin/ecfd_cli.exe -- fd --detector ec-from-leader -n 5 --crash 1@100
     dune exec bin/ecfd_cli.exe -- consensus --protocol ec -n 7 --crash 0@10 --crash 2@50
     dune exec bin/ecfd_cli.exe -- transform -n 5 --gst 300 --crash 2@400
*)

open Cmdliner

(* --- shared arguments --- *)

let n_arg =
  let doc = "Number of processes." in
  Arg.(value & opt int 5 & info [ "n"; "processes" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Simulation seed (runs are deterministic per seed)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let gst_arg =
  let doc = "Global stabilisation time: before it, delays are unbounded-looking." in
  Arg.(value & opt int 0 & info [ "gst" ] ~docv:"T" ~doc)

let delta_arg =
  let doc = "Post-GST bound on message delay." in
  Arg.(value & opt int 8 & info [ "delta" ] ~docv:"D" ~doc)

let horizon_arg =
  let doc = "How long to run the simulation." in
  Arg.(value & opt int 8000 & info [ "horizon" ] ~docv:"T" ~doc)

let crash_conv =
  let parse s =
    match String.split_on_char '@' s with
    | [ p; t ] -> (
      match (int_of_string_opt p, int_of_string_opt t) with
      | Some p, Some t when p >= 0 && t >= 0 -> Ok (p, t)
      | _ -> Error (`Msg "expected PID@TIME with non-negative integers"))
    | _ -> Error (`Msg "expected PID@TIME, e.g. 1@100 (PID is 0-based)")
  in
  let print ppf (p, t) = Format.fprintf ppf "%d@%d" p t in
  Arg.conv (parse, print)

let crashes_arg =
  let doc = "Crash process $(i,PID) at time $(i,T) (0-based pid; repeatable)." in
  Arg.(value & opt_all crash_conv [] & info [ "crash" ] ~docv:"PID@T" ~doc)

let verbose_arg =
  let doc = "Dump the full event trace." in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

let timeline_arg =
  let doc = "Render ASCII timelines of the run (leadership, suspicions, decisions)." in
  Arg.(value & flag & info [ "timeline" ] ~doc)

let dump_trace_arg =
  let doc = "Write the full event trace to $(docv) (one event per line)." in
  Arg.(value & opt (some string) None & info [ "dump-trace" ] ~docv:"FILE" ~doc)

let dump_trace path trace =
  Option.iter
    (fun file ->
      let oc = open_out file in
      Sim.Trace.dump trace oc;
      close_out oc;
      Format.printf "trace written to %s (%d events)@." file (Sim.Trace.length trace))
    path

(* --- file helpers shared by the subcommands that read or write files --- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Exit 2 when an input cannot be understood, as every reading
   subcommand does. *)
let die ~cmd fmt = Printf.ksprintf (fun msg -> Printf.eprintf "ecfd %s: %s\n" cmd msg; exit 2) fmt

let parse_json_or_die ~cmd what text =
  try Json_min.parse text with Json_min.Parse_error msg -> die ~cmd "%s: %s" what msg

let load_trace_or_die ~cmd path =
  try Tracequery_core.Trace_file.load path
  with Tracequery_core.Trace_file.Bad_trace msg -> die ~cmd "%s: %s" path msg

(* Write [text] to [out] (stdout when [None]); [on_file] runs after a file
   was written, for the subcommand's confirmation line. *)
let write_with ?(on_file = ignore) out write =
  match out with
  | None -> write stdout
  | Some file ->
    Out_channel.with_open_bin file write;
    on_file file

let write_output ?on_file out text = write_with ?on_file out (fun oc -> output_string oc text)

(* One table per choice: the CLI name and the scenario value it selects.
   [Ec_from_perfect]'s crash schedule is only known once the run's
   --crash flags are read, so the table holds it empty and
   [detector_for] fills it in. *)
let detectors =
  [
    ("heartbeat-p", Scenario.Heartbeat_p);
    ("ring-s", Scenario.Ring_s);
    ("ring-w", Scenario.Ring_w);
    ("leader-s", Scenario.Leader_s);
    ("stable-omega", Scenario.Stable_omega);
    ("ec-from-stable", Scenario.Ec_from_stable);
    ("ec-from-leader", Scenario.Ec_from_leader);
    ("ec-from-ring", Scenario.Ec_from_ring);
    ("ec-from-omega-chu", Scenario.Ec_from_omega_chu);
    ("ec-from-heartbeat", Scenario.Ec_from_heartbeat);
    ("ec-from-perfect", Scenario.Ec_from_perfect Sim.Fault.none);
    ("scripted-stable", Scenario.Scripted_stable 0);
  ]

let protocols =
  let ec = Ecfd.Ec_consensus.default_params in
  [
    ("ec", Scenario.Ec ec);
    ("ec-merged", Scenario.Ec { ec with merge_phase01 = true });
    ("ec-strict", Scenario.Ec { ec with wait_mode = Ecfd.Ec_consensus.Strict_majority });
    ("ct", Scenario.Ct);
    ("mr", Scenario.Mr);
    ("hr", Scenario.Hr);
  ]

let choice_arg table ~default ~names ~docv ~doc =
  let doc = Printf.sprintf "%s: %s." doc (String.concat " | " (List.map fst table)) in
  Arg.(value & opt (enum table) (List.assoc default table) & info names ~docv ~doc)

let detector_arg =
  choice_arg detectors ~default:"ec-from-leader" ~names:[ "detector"; "d" ] ~docv:"DETECTOR"
    ~doc:"Which detector to install"

let protocol_arg =
  choice_arg protocols ~default:"ec" ~names:[ "protocol"; "p" ] ~docv:"PROTO"
    ~doc:"Which consensus protocol to run"

let detector_for ~schedule = function
  | Scenario.Ec_from_perfect _ -> Scenario.Ec_from_perfect schedule
  | detector -> detector

let net ~seed ~gst ~delta = { (Scenario.chaotic_net ~seed ~gst ()) with delta }

let print_event indent e = Format.printf "%s%a@." indent Sim.Trace.pp_event e
let print_trace trace = Sim.Trace.iter trace (print_event "")

let print_matrix run =
  Format.printf "@.Property matrix:@.";
  List.iter
    (fun (prop, (report : Spec.Fd_props.report)) ->
      Format.printf "  %-38s %s@."
        (Fd.Classes.property_name prop)
        (match report.Spec.Fd_props.since with
        | Some t when report.Spec.Fd_props.holds -> Printf.sprintf "holds (from t=%d)" t
        | _ when report.Spec.Fd_props.holds -> "holds"
        | _ -> "violated"))
    (Spec.Fd_props.class_matrix run);
  Format.printf "@.Classes satisfied on this run:";
  List.iter
    (fun cls ->
      if Spec.Fd_props.satisfies_class cls run then Format.printf " %s" (Fd.Classes.name cls))
    Fd.Classes.all;
  Format.printf "@."

(* --- fd subcommand --- *)

let fd_cmd =
  let run detector n seed gst delta horizon crashes verbose timeline dump =
    let schedule = Sim.Fault.crashes crashes in
    let detector = detector_for ~schedule detector in
    let _, run, stats =
      Scenario.fd_run ~net:(net ~seed ~gst ~delta) ~crashes:schedule ~horizon ~n ~detector ()
    in
    if verbose then print_trace run.Spec.Fd_props.trace;
    dump_trace dump run.Spec.Fd_props.trace;
    if timeline then begin
      Format.printf "@.Leadership:@.%s" (Spec.Timeline.render_leadership run ~horizon);
      Format.printf "@.Suspicions:@.%s" (Spec.Timeline.render_suspicions run ~horizon);
      Format.printf "%s@." Spec.Timeline.legend
    end;
    Format.printf "detector %s, n=%d, seed=%d, gst=%d, crashes=%a@."
      (Scenario.detector_name detector)
      n seed gst Sim.Fault.pp schedule;
    print_matrix run;
    let total = Sim.Stats.total stats in
    Format.printf "@.Messages: sent=%d delivered=%d dropped=%d@." total.Sim.Stats.sent
      total.Sim.Stats.delivered total.Sim.Stats.dropped
  in
  let doc = "Run a failure detector and report which classes it satisfied." in
  Cmd.v
    (Cmd.info "fd" ~doc)
    Term.(
      const run
      $ detector_arg
      $ n_arg $ seed_arg $ gst_arg $ delta_arg $ horizon_arg $ crashes_arg $ verbose_arg
      $ timeline_arg $ dump_trace_arg)

(* --- consensus subcommand --- *)

let consensus_cmd =
  let run protocol detector n seed gst delta horizon crashes verbose timeline dump =
    let schedule = Sim.Fault.crashes crashes in
    let detector = detector_for ~schedule detector in
    let r =
      Scenario.run_consensus ~net:(net ~seed ~gst ~delta) ~crashes:schedule ~horizon ~n ~detector
        ~protocol ()
    in
    if verbose then print_trace r.Scenario.trace;
    dump_trace dump r.Scenario.trace;
    if timeline then begin
      let fd_run =
        Spec.Fd_props.make_run
          ~component:(Fd.Fd_handle.component r.Scenario.fd)
          ~n r.Scenario.trace
      in
      Format.printf "@.Leadership:@.%s" (Spec.Timeline.render_leadership fd_run ~horizon);
      Format.printf "@.Decisions:@.%s"
        (Spec.Timeline.render_decisions r.Scenario.trace ~n ~horizon);
      Format.printf "%s@.@." Spec.Timeline.legend
    end;
    Format.printf "protocol %s over %s, n=%d, seed=%d, gst=%d, crashes=%a@."
      (Scenario.protocol_name protocol)
      (Scenario.detector_name detector)
      n seed gst Sim.Fault.pp schedule;
    Format.printf "@.Decisions:@.";
    List.iter
      (fun (p, v, round, at) ->
        Format.printf "  %a decides %d in round %d at t=%d@." Sim.Pid.pp p v round at)
      (Sim.Trace.decisions r.Scenario.trace);
    (match Spec.Consensus_props.check_all r.Scenario.trace ~n with
    | [] -> Format.printf "@.Uniform Consensus holds on this run.@."
    | violations ->
      List.iter
        (fun v -> Format.printf "VIOLATION: %a@." Spec.Consensus_props.pp_violation v)
        violations);
    Format.printf "@.Messages per round:@.";
    List.iter
      (fun (round, sends) -> Format.printf "  round %d: %d@." round sends)
      (Spec.Round_metrics.sends_by_round r.Scenario.trace
         ~component:(Scenario.protocol_component protocol))
  in
  let doc = "Solve one instance of Uniform Consensus and check its properties." in
  Cmd.v
    (Cmd.info "consensus" ~doc)
    Term.(
      const run
      $ protocol_arg
      $ detector_arg
      $ n_arg $ seed_arg $ gst_arg $ delta_arg $ horizon_arg $ crashes_arg $ verbose_arg
      $ timeline_arg $ dump_trace_arg)

(* --- transform subcommand --- *)

let transform_cmd =
  let run n seed gst delta horizon crashes piggyback =
    let schedule = Sim.Fault.crashes crashes in
    let engine = Scenario.engine ~net:(net ~seed ~gst ~delta) ~n () in
    Sim.Fault.apply engine schedule;
    let hooks = Fd.Leader_s.make_hooks () in
    let base = Fd.Leader_s.install ~hooks engine Fd.Leader_s.default_params in
    let ec = Ecfd.Ec.of_leader_s base ~engine in
    let p =
      if piggyback then
        Ecfd.Ec_to_p.install_piggybacked engine ~hooks ~underlying:ec Ecfd.Ec_to_p.default_params
      else Ecfd.Ec_to_p.install engine ~underlying:ec Ecfd.Ec_to_p.default_params
    in
    Sim.Engine.run_until engine horizon;
    let run =
      Spec.Fd_props.make_run ~component:(Fd.Fd_handle.component p) ~n (Sim.Engine.trace engine)
    in
    Format.printf "<>C -> <>P transformation (%s), n=%d, seed=%d, gst=%d, crashes=%a@."
      (if piggyback then "piggybacked" else "stand-alone")
      n seed gst Sim.Fault.pp schedule;
    print_matrix run;
    let stats = Sim.Engine.stats engine in
    Format.printf "@.Messages sent: transformation=%d, underlying detector=%d@."
      (Sim.Stats.component_counts stats ~component:Ecfd.Ec_to_p.component).Sim.Stats.sent
      (Sim.Stats.component_counts stats ~component:Fd.Leader_s.component).Sim.Stats.sent
  in
  let doc = "Run the Section 4 transformation <>C -> <>P and verify Theorem 1." in
  Cmd.v
    (Cmd.info "transform" ~doc)
    Term.(
      const run $ n_arg $ seed_arg $ gst_arg $ delta_arg $ horizon_arg $ crashes_arg
      $ Arg.(
          value & flag
          & info [ "piggyback" ]
              ~doc:"Ride the suspect lists on the underlying detector's heartbeats."))

(* --- trace subcommand --- *)

let trace_cmd =
  let run protocol detector n seed gst delta horizon crashes format out =
    let schedule = Sim.Fault.crashes crashes in
    let detector = detector_for ~schedule detector in
    let r =
      Scenario.run_consensus ~net:(net ~seed ~gst ~delta) ~crashes:schedule ~horizon ~n ~detector
        ~protocol ()
    in
    (* Rendered into a buffer that is written out as is: a large export is
       held once, not once more as a string. *)
    let buf = Buffer.create 65536 in
    (match format with
    | `Chrome -> Sim.Trace_export.chrome buf r.Scenario.trace
    | `Jsonl -> Sim.Trace_export.jsonl buf r.Scenario.trace);
    write_with out (fun oc -> Buffer.output_buffer oc buf) ~on_file:(fun file ->
        Format.eprintf "trace written to %s (%d events)@." file (Sim.Trace.length r.Scenario.trace))
  in
  let doc =
    "Run a consensus scenario and export its trace (Chrome trace-event JSON for Perfetto, or \
     JSONL for $(b,filter), $(b,ancestry) and $(b,rollup))."
  in
  Cmd.v
    (Cmd.info "trace" ~doc)
    Term.(
      const run
      $ protocol_arg
      $ detector_arg
      $ n_arg $ seed_arg $ gst_arg $ delta_arg $ horizon_arg $ crashes_arg
      $ Arg.(
          value
          & opt (enum [ ("chrome", `Chrome); ("jsonl", `Jsonl) ]) `Jsonl
          & info [ "format"; "f" ] ~docv:"FMT" ~doc:"chrome or jsonl.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write to $(docv) instead of stdout."))

(* --- qos subcommand --- *)

let qos_cmd =
  let run detector n seed gst delta horizon crashes output =
    let schedule = Sim.Fault.crashes crashes in
    let detector = detector_for ~schedule detector in
    let handle, fdrun, _stats =
      Scenario.fd_run ~net:(net ~seed ~gst ~delta) ~crashes:schedule ~horizon ~n ~detector ()
    in
    let component = Fd.Fd_handle.component handle in
    let report = Obs.Qos.finish fdrun.Spec.Fd_props.qos ~horizon in
    let json =
      Obs.Rollup.to_json
        [ { Obs.Rollup.name = Scenario.detector_name detector; component; report } ]
    in
    write_output output json ~on_file:(Format.eprintf "qos rollup written to %s@.")
  in
  let doc =
    "Run a failure detector and emit its QoS / SLA rollup as JSON (detection time, mistake \
     rate, query accuracy, availability; schema docs/schemas/qos.schema.json)."
  in
  Cmd.v
    (Cmd.info "qos" ~doc)
    Term.(
      const run
      $ detector_arg
      $ n_arg $ seed_arg $ gst_arg $ delta_arg $ horizon_arg $ crashes_arg
      $ Arg.(
          value
          & opt (some string) None
          & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write the JSON to $(docv) instead of stdout."))

(* --- queries over JSONL trace exports: filter, ancestry, diff, validate,
   rollup.  Each export line decodes back into a Sim.Trace event, so these
   run on the same typed code as the in-process path, and --jsonl output
   is re-emitted through Sim.Trace_export.jsonl_event. --- *)

let file_arg ~n ~doc = Arg.(required & pos n (some file) None & info [] ~docv:"FILE" ~doc)

let print_jsonl events =
  let buf = Buffer.create 256 in
  List.iter
    (fun e ->
      Buffer.clear buf;
      Sim.Trace_export.jsonl_event buf e;
      Buffer.output_buffer stdout buf)
    events

let filter_cmd =
  let run path component pid from_t to_t pretty =
    let events =
      Tracequery_core.Query.filter ?component ?pid ?from_t ?to_t
        (load_trace_or_die ~cmd:"filter" path)
    in
    if pretty then List.iter (print_event "") events else print_jsonl events
  in
  let doc = "Select events of a JSONL trace export by component, process, and time window." in
  Cmd.v
    (Cmd.info "filter" ~doc)
    Term.(
      const run
      $ file_arg ~n:0 ~doc:"JSONL trace export."
      $ Arg.(
          value
          & opt (some string) None
          & info [ "component"; "c" ] ~docv:"NAME" ~doc:"Keep only this component's events.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "pid" ] ~docv:"P"
              ~doc:"Keep events involving process $(docv) (0-based; link events match on either \
                    endpoint).")
      $ Arg.(
          value & opt (some int) None & info [ "from" ] ~docv:"T" ~doc:"Discard events before T.")
      $ Arg.(
          value & opt (some int) None & info [ "to" ] ~docv:"T" ~doc:"Discard events after T.")
      $ Arg.(
          value & flag & info [ "pretty" ] ~doc:"Human-readable lines instead of JSONL."))

let ancestry_cmd =
  let run path seq pid jsonl =
    let events = load_trace_or_die ~cmd:"ancestry" path in
    let target =
      match seq with
      | Some s -> (
        match Tracequery_core.Query.find_seq ~seq:s events with
        | Some e -> e
        | None -> die ~cmd:"ancestry" "no event with seq %d" s)
      | None -> (
        match Tracequery_core.Query.first_decide ?pid events with
        | Some e -> e
        | None -> die ~cmd:"ancestry" "no decide event in %s" path)
    in
    let cone = Tracequery_core.Query.ancestry events ~seq:target.Sim.Trace.seq in
    if jsonl then print_jsonl cone
    else begin
      Format.printf "happens-before cone of %a (%d of %d events):@." Sim.Trace.pp_event target
        (List.length cone) (List.length events);
      List.iter (print_event "  ") cone
    end
  in
  let doc = "Print the happens-before cone of an event (default: the first decide)." in
  Cmd.v
    (Cmd.info "ancestry" ~doc)
    Term.(
      const run
      $ file_arg ~n:0 ~doc:"JSONL trace export."
      $ Arg.(
          value
          & opt (some int) None
          & info [ "seq" ] ~docv:"N" ~doc:"Target event by sequence number.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "pid" ] ~docv:"P" ~doc:"With no --seq: first decide at this process.")
      $ Arg.(value & flag & info [ "jsonl" ] ~doc:"Emit the cone as JSONL, no header."))

let diff_cmd =
  let run a b =
    let lines = Tracequery_core.Trace_file.read_lines in
    match Tracequery_core.Query.diff_lines (lines a) (lines b) with
    | None -> Printf.printf "identical (%s = %s)\n" a b
    | Some { line; left; right } ->
      Printf.printf "traces diverge at line %d:\n" line;
      Printf.printf "  %s: %s\n" a (Option.value left ~default:"<end of file>");
      Printf.printf "  %s: %s\n" b (Option.value right ~default:"<end of file>");
      exit 1
  in
  let doc = "Compare two trace exports line by line; exit 1 at the first divergence." in
  Cmd.v
    (Cmd.info "diff" ~doc)
    Term.(
      const run
      $ file_arg ~n:0 ~doc:"First export."
      $ file_arg ~n:1 ~doc:"Second export.")

let validate_cmd =
  let run path schema_path jsonl =
    let parse = parse_json_or_die ~cmd:"validate" in
    let schema = parse schema_path (read_file schema_path) in
    let failures = ref 0 in
    let check what value =
      List.iter
        (fun e ->
          incr failures;
          Printf.printf "%s: %s\n" what (Format.asprintf "%a" Tracequery_core.Schema.pp_error e))
        (Tracequery_core.Schema.check ~schema value)
    in
    if jsonl then
      List.iteri
        (fun i line ->
          if String.trim line <> "" then
            check (Printf.sprintf "%s:%d" path (i + 1)) (parse path line))
        (Tracequery_core.Trace_file.read_lines path)
    else check path (parse path (read_file path));
    if !failures = 0 then Printf.printf "%s: valid\n" path else exit 1
  in
  let doc = "Validate an export against a JSON schema (whole file, or per line with --jsonl)." in
  Cmd.v
    (Cmd.info "validate" ~doc)
    Term.(
      const run
      $ file_arg ~n:0 ~doc:"File to validate."
      $ Arg.(
          required
          & opt (some file) None
          & info [ "schema" ] ~docv:"SCHEMA" ~doc:"JSON schema file (docs/schemas/).")
      $ Arg.(
          value & flag
          & info [ "jsonl" ] ~doc:"Validate every line as its own document (JSONL exports)."))

let rollup_cmd =
  let run path component n horizon output =
    write_output output
      (Tracequery_core.Query.rollup ?n ?horizon ?component (load_trace_or_die ~cmd:"rollup" path))
  in
  let doc =
    "QoS / SLA rollup of a JSONL trace export (detection time, mistake rate, availability; \
     one scenario per failure-detector component; schema docs/schemas/qos.schema.json), \
     computed by the same code as $(b,qos)."
  in
  Cmd.v
    (Cmd.info "rollup" ~doc)
    Term.(
      const run
      $ file_arg ~n:0 ~doc:"JSONL trace export."
      $ Arg.(
          value
          & opt (some string) None
          & info [ "component"; "c" ] ~docv:"NAME"
              ~doc:"Roll up only this detector component (default: every component seen).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "n" ] ~docv:"N"
              ~doc:"Process count (default: inferred as max pid in the trace + 1).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "horizon" ] ~docv:"T"
              ~doc:"Run horizon in ticks (default: inferred as the last event time).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Write the JSON here instead of stdout."))

(* --- bench-diff subcommand --- *)

(* Flatten a bench JSON document (BENCH_sim_core.json, BENCH_qos.json,
   BENCH_experiments.json) into (path, number) leaves.  Array elements
   are keyed by their identifying fields (name / n / observer / subject) when
   present, so rows still line up after a sweep is extended. *)
let rec bench_flatten prefix (j : Json_min.t) acc =
  let open Json_min in
  match j with
  | Int v -> (prefix, float_of_int v) :: acc
  | Float v -> (prefix, v) :: acc
  | Obj fields ->
    List.fold_left
      (fun acc (k, v) ->
        bench_flatten (if prefix = "" then k else prefix ^ "." ^ k) v acc)
      acc fields
  | List items ->
    let key i item =
      match item with
      | Obj fields ->
        let ids =
          List.filter_map
            (fun k ->
              match List.assoc_opt k fields with
              | Some (Int v) -> Some (Printf.sprintf "%s=%d" k v)
              | Some (String s) -> Some (Printf.sprintf "%s=%s" k s)
              | _ -> None)
            [ "name"; "n"; "observer"; "subject" ]
        in
        if ids = [] then string_of_int i else String.concat "," ids
      | _ -> string_of_int i
    in
    let _, acc =
      List.fold_left
        (fun (i, acc) item ->
          (i + 1, bench_flatten (Printf.sprintf "%s[%s]" prefix (key i item)) item acc))
        (0, acc) items
    in
    acc
  | Null | Bool _ | String _ -> acc

(* Which way is "worse"?  Throughput-like figures should not drop;
   latency/error-like figures should not grow; anything else is
   informational only. *)
let bench_direction path =
  let contains sub =
    let n = String.length sub and m = String.length path in
    let rec go i = i + n <= m && (String.sub path i n = sub || go (i + 1)) in
    go 0
  in
  if
    List.exists contains
      [ "events_per_sec"; "availability"; "query_accuracy"; "speedup"; "\"detected" ]
    || contains ".detected"
  then `Higher_better
  else if
    List.exists contains
      [
        "words_per_event"; "minor_words"; "detection"; "mistake"; "downtime"; "outage";
        "undetected"; "rate_per_1k";
      ]
  then `Lower_better
  else `Neutral

let bench_diff_cmd =
  let run file_a file_b threshold =
    let parse path = parse_json_or_die ~cmd:"bench-diff" path (read_file path) in
    let flat path =
      List.sort
        (fun (pa, _) (pb, _) -> String.compare pa pb)
        (bench_flatten "" (parse path) [])
    in
    let a = flat file_a and b = flat file_b in
    let regressions = ref 0 and compared = ref 0 in
    List.iter
      (fun (path, va) ->
        match List.assoc_opt path b with
        | None -> ()
        | Some vb ->
          incr compared;
          let pct =
            if va <> 0.0 then 100.0 *. (vb -. va) /. Float.abs va
            else if vb = 0.0 then 0.0
            else 100.0
          in
          let dir = bench_direction path in
          let worse =
            match dir with
            | `Higher_better -> pct < -.threshold
            | `Lower_better -> pct > threshold
            | `Neutral -> false
          in
          let better =
            match dir with
            | `Higher_better -> pct > threshold
            | `Lower_better -> pct < -.threshold
            | `Neutral -> false
          in
          if worse then begin
            incr regressions;
            Printf.printf "REGRESSION %-60s %14.4f -> %14.4f  (%+.1f%%)\n" path va vb pct
          end
          else if better then
            Printf.printf "improved   %-60s %14.4f -> %14.4f  (%+.1f%%)\n" path va vb pct
          else if Float.abs pct > threshold && dir = `Neutral then
            Printf.printf "changed    %-60s %14.4f -> %14.4f  (%+.1f%%)\n" path va vb pct)
      a;
    List.iter
      (fun (path, _) ->
        if List.assoc_opt path a = None then Printf.printf "new        %s\n" path)
      b;
    Printf.printf "bench-diff: %d comparable metrics, %d regression(s) beyond %.1f%% (%s -> %s)\n"
      !compared !regressions threshold file_a file_b;
    if !regressions > 0 then exit 1
  in
  let doc =
    "Compare two bench JSON files (BENCH_sim_core.json, BENCH_qos.json, ...): throughput, \
     allocation and QoS deltas beyond a threshold; exits 1 when a directional metric \
     regressed (throughput down, latency/mistakes up)."
  in
  Cmd.v
    (Cmd.info "bench-diff" ~doc)
    Term.(
      const run
      $ Arg.(required & pos 0 (some file) None & info [] ~docv:"BASELINE" ~doc:"Old bench JSON.")
      $ Arg.(required & pos 1 (some file) None & info [] ~docv:"CURRENT" ~doc:"New bench JSON.")
      $ Arg.(
          value & opt float 10.0
          & info [ "threshold" ] ~docv:"PCT"
              ~doc:"Relative change (percent) below which a delta is noise."))

(* --- sweep subcommand --- *)

let sweep_cmd =
  let run protocol detector param values seeds n delta horizon domains =
    Option.iter Exec.Pool.set_default_domains domains;
    
    Format.printf "sweep of %s for %s over %s (%d seeds per point)@.@." param
      (Scenario.protocol_name protocol)
      (Scenario.detector_name detector)
      seeds;
    Format.printf "  %8s | %7s | %12s | %11s | %6s@." param "ok" "mean t(done)" "mean rounds"
      "n";
    Format.printf "  ---------+---------+--------------+-------------+-------@.";
    (* The whole (value × seed) grid goes through the domain pool in one
       job list; each job is a self-contained run, and results come back
       in grid order, so the table is identical at any --domains value. *)
    let points =
      List.map
        (fun value ->
          let gst = if param = "gst" then value else 0 in
          let n = if param = "n" then value else n in
          (value, gst, n))
        values
    in
    let grid =
      Exec.Pool.run
        (List.concat_map
           (fun (_, gst, n) ->
             List.init seeds (fun i () ->
                 let seed = i + 1 in
                 let r =
                   Scenario.run_consensus
                     ~net:(net ~seed ~gst ~delta)
                     ~horizon ~n ~detector ~protocol ()
                 in
                 ( Spec.Consensus_props.check_all r.Scenario.trace ~n = [],
                   Spec.Consensus_props.last_decision_time r.Scenario.trace,
                   Spec.Consensus_props.decision_round r.Scenario.trace )))
           points)
    in
    let rec chunk k = function
      | [] -> []
      | flat -> List.filteri (fun i _ -> i < k) flat :: chunk k (List.filteri (fun i _ -> i >= k) flat)
    in
    List.iter2
      (fun (value, _, n) results ->
        let ok = List.length (List.filter (fun (ok, _, _) -> ok) results) in
        let mean xs =
          match xs with
          | [] -> "-"
          | _ ->
            Printf.sprintf "%.1f"
              (List.fold_left ( +. ) 0.0 (List.map float_of_int xs)
              /. float_of_int (List.length xs))
        in
        Format.printf "  %8d | %3d/%3d | %12s | %11s | %6d@." value ok seeds
          (mean (List.filter_map (fun (_, t, _) -> t) results))
          (mean (List.filter_map (fun (_, _, r) -> r) results))
          n)
      points (chunk seeds grid)
  in
  let doc = "Sweep a parameter (gst or n) and report consensus latency/rounds." in
  Cmd.v
    (Cmd.info "sweep" ~doc)
    Term.(
      const run
      $ protocol_arg
      $ detector_arg
      $ Arg.(
          value & opt string "gst"
          & info [ "param" ] ~docv:"PARAM" ~doc:"Which parameter to sweep: gst or n.")
      $ Arg.(
          value
          & opt (list int) [ 0; 200; 600; 1200 ]
          & info [ "values" ] ~docv:"V1,V2,..." ~doc:"Sweep points.")
      $ Arg.(
          value & opt int 5 & info [ "seeds" ] ~docv:"K" ~doc:"Seeds (runs) per sweep point.")
      $ n_arg $ delta_arg $ horizon_arg
      $ Arg.(
          value
          & opt (some int) None
          & info [ "domains" ] ~docv:"D"
              ~doc:
                "Worker domains for the sweep grid (default: \\$(b,ECFD_DOMAINS) or the \
                 machine's recommended count, capped at 8; 1 = sequential).  The output is \
                 identical at every value."))

(* --- check subcommand --- *)

let check_cmd =
  let run json list_rules =
    if list_rules then Check_common.Registry.print ()
    else begin
      (* Roots are build trees: from the workspace root they live under
         _build/default, from inside it (the dune rule) they are bare. *)
      let build = Filename.concat "_build" "default" in
      let base r = if Sys.file_exists build then Filename.concat build r else r in
      exit (Check_common.Cmt_driver.main ?json (List.map base Check_common.Cmt_source.default_roots))
    end
  in
  let doc =
    "Run every static rule (R determinism & hygiene, A typed analysis, Z zero \
     allocation, D domain safety) over the .cmt files of lib, bench and bin, plus the \
     [@alloc.zero] roots check against bench/alloc_budget.json.  Exits 0 when clean, \
     1 on findings, 2 when the check cannot run."
  in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(
      const run
      $ Arg.(
          value
          & opt (some string) None
          & info [ "json" ] ~docv:"FILE"
              ~doc:"Also write the findings to $(docv) (docs/schemas/findings.schema.json).")
      $ Arg.(value & flag & info [ "list-rules" ] ~doc:"List the rules and exit."))

let main =
  let doc = "Eventually consistent failure detectors (Larrea, Fernández, Arévalo) — simulator" in
  Cmd.group
    (Cmd.info "ecfd" ~doc ~version:"1.0.0")
    [
      fd_cmd; consensus_cmd; transform_cmd; sweep_cmd; trace_cmd; qos_cmd; filter_cmd;
      ancestry_cmd; diff_cmd; validate_cmd; rollup_cmd; bench_diff_cmd; check_cmd;
    ]

let () = exit (Cmd.eval main)
