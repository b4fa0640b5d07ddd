(* Jobs: their inputs, the bodies that drive the program through its
   public interfaces, and the outcomes they report.

   A job builds its own engine from explicit inputs and returns plain
   data (an [outcome]), so jobs can run on any domain of the pool. *)

(* ---------------------------------------------------------------- *)
(* Job inputs                                                       *)
(* ---------------------------------------------------------------- *)

type consensus_input = {
  strict : bool;  (** First-majority wait instead of the paper's extended wait. *)
  nackers : Sim.Pid.t list;
}

type detector_input = {
  detector : Scenario.detector;
  claimed : Fd.Classes.t;
  n : int;
  horizon : int;
  gst : int;
  crashes : Sim.Fault.t;
  audit : bool;
      (** Full audit (class matrix, QoS, rollup, both exports), or only the
          linear-cost checks. *)
}

type input = Consensus of consensus_input | Detector of detector_input

type job = {
  label : string;
  link_seed : int;
  input : input;
  heavy : bool;  (** Expected to run long; scheduled first. *)
}

(* ---------------------------------------------------------------- *)
(* Job outcomes                                                     *)
(* ---------------------------------------------------------------- *)

type outcome = {
  mutable failure : string option;  (** First failed check, or the exception. *)
  mutable wall_s : float;
  mutable words : float;  (** Minor words allocated by the whole job. *)
  mutable run_words : float;  (** ... inside [run_until]. *)
  mutable spec_words : float;  (** ... inside the Spec checkers. *)
  mutable events : int;
  mutable records : int;
  mutable msgs : int;
  mutable fd_msgs : int;
  mutable consensus_msgs : int;
  mutable broadcast_msgs : int;
  mutable timers_set : int;
  mutable timers_fired : int;
  mutable queue_high_water : int;
  mutable rounds : int;
  mutable decisions : int;
  mutable quality_num : float;
  mutable quality_den : float;
  mutable latencies : int list;  (** Decision instants, or crash-detection times. *)
  mutable mistakes : int;
  mutable export_bytes : int;
  mutable digest : string;  (** Decision rounds / rollup JSON / counts of this job. *)
  mutable shard_count : int;
  probe : Probe.t;
}

let blank probe =
  {
    failure = None;
    wall_s = 0.;
    words = 0.;
    run_words = 0.;
    spec_words = 0.;
    events = 0;
    records = 0;
    msgs = 0;
    fd_msgs = 0;
    consensus_msgs = 0;
    broadcast_msgs = 0;
    timers_set = 0;
    timers_fired = 0;
    queue_high_water = 0;
    rounds = 0;
    decisions = 0;
    quality_num = 0.;
    quality_den = 0.;
    latencies = [];
    mistakes = 0;
    export_bytes = 0;
    digest = "";
    shard_count = 0;
    probe;
  }

let fail o fmt =
  Printf.ksprintf (fun msg -> if Option.is_none o.failure then o.failure <- Some msg) fmt

(* ---------------------------------------------------------------- *)
(* Shared job steps                                                 *)
(* ---------------------------------------------------------------- *)

(* The engine [Scenario.engine] builds, with the probe's link wrapper and
   trace/registry observers in place before anything is recorded. *)
let make_engine probe ~seed ~n ~gst =
  let net =
    if gst = 0 then { Scenario.default_net with seed } else Scenario.chaotic_net ~seed ~gst ()
  in
  let link =
    Sim.Link.partially_synchronous ~min_delay:net.min_delay ~pre_gst_max:net.pre_gst_max
      ~gst:net.gst ~delta:net.delta ()
  in
  let engine = Sim.Engine.create ~seed ~n ~link:(Probe.link probe link) () in
  Probe.observe_engine probe engine;
  engine

let simulate probe o engine ~horizon =
  Probe.phase probe "simulate" (fun () ->
      let w0 = Gc.minor_words () in
      Sim.Engine.run_until engine horizon;
      o.run_words <- Gc.minor_words () -. w0)

let spec probe o name f =
  Probe.phase probe name (fun () ->
      let w0 = Gc.minor_words () in
      let v = f () in
      o.spec_words <- o.spec_words +. (Gc.minor_words () -. w0);
      v)

let check_clock probe o trace =
  match spec probe o "spec.clock" (fun () -> Spec.Clock_props.check trace) with
  | [] -> ()
  | v :: _ -> fail o "clock: %s" (Format.asprintf "%a" Spec.Clock_props.pp_violation v)

(* Engine-side counts shared by every job. *)
let collect o engine =
  let stats = Sim.Engine.stats engine in
  let life = Sim.Stats.lifecycle stats in
  o.events <- life.Sim.Stats.events_executed;
  o.timers_set <- life.timers_set;
  o.timers_fired <- life.timers_fired;
  o.queue_high_water <- life.queue_high_water;
  o.records <- Sim.Trace.length (Sim.Engine.trace engine);
  o.shard_count <- Sim.Engine.shard_count engine;
  List.iter
    (fun component ->
      let sent = (Sim.Stats.component_counts stats ~component).Sim.Stats.sent in
      o.msgs <- o.msgs + sent;
      if String.starts_with ~prefix:"consensus." component then o.consensus_msgs <- o.consensus_msgs + sent
      else if String.equal component "rb" then o.broadcast_msgs <- o.broadcast_msgs + sent
      else o.fd_msgs <- o.fd_msgs + sent)
    (Sim.Stats.components stats)

(* ---------------------------------------------------------------- *)
(* consensus-noise: one E15 cell                                    *)
(* ---------------------------------------------------------------- *)

let consensus_n = 9
let consensus_horizon = 8000

(* Each job body does its set-up and returns the rest of the job. *)
let consensus_job probe o ~on_trace ~link_seed (c : consensus_input) =
  let n = consensus_n in
  let engine, inst =
    Probe.phase probe "setup" (fun () ->
        let engine = make_engine probe ~seed:link_seed ~n ~gst:0 in
        let accurate = Fd.Scripted.accurate_stable ~leader:0 ~crashed:Sim.Pid.Set.empty in
        let nacker_view =
          Fd.Fd_view.make ~trusted:0 ~suspected:(Sim.Pid.set_of_list [ 0 ]) ()
        in
        let fd =
          Fd.Scripted.install engine
            ~initial:(fun p -> if List.mem p c.nackers then nacker_view else accurate p)
            ~steps:[] ()
        in
        Probe.observe_detector probe fd;
        let rb = Broadcast.Reliable_broadcast.create engine in
        let params =
          {
            Ecfd.Ec_consensus.default_params with
            max_rounds = 2000;
            wait_mode = (if c.strict then Strict_majority else Extended);
          }
        in
        let inst = Ecfd.Ec_consensus.install engine ~fd ~rb params in
        List.iter (fun p -> inst.Consensus.Instance.propose p (100 + p)) (Sim.Pid.all ~n);
        (engine, inst))
  in
  fun () ->
    simulate probe o engine ~horizon:consensus_horizon;
    let trace = Sim.Engine.trace engine in
    on_trace trace;
    let round =
      spec probe o "spec.consensus" (fun () ->
          (match Spec.Consensus_props.check_safety trace with
          | [] -> ()
          | v :: _ ->
            fail o "consensus safety: %s" (Format.asprintf "%a" Spec.Consensus_props.pp_violation v));
          Spec.Consensus_props.decision_round trace)
    in
    check_clock probe o trace;
    collect o engine;
    let decisions = Sim.Trace.decisions trace in
    o.rounds <- Consensus.Instance.max_round inst ~n;
    o.decisions <- List.length decisions;
    o.quality_num <- float_of_int o.decisions;
    o.quality_den <- float_of_int n;
    o.latencies <- List.map (fun (_, _, _, at) -> at) decisions;
    o.digest <-
      String.concat ";"
        (Option.fold ~none:"undecided" ~some:string_of_int round
        :: List.map (fun (p, v, r, at) -> Printf.sprintf "%d=%d@r%d,t%d" p v r at) decisions)

(* ---------------------------------------------------------------- *)
(* detector-audit and heartbeat-large: one detector-only run        *)
(* ---------------------------------------------------------------- *)

(* ◇P at the horizon, in one pass over the trace: every correct process's
   last view suspects exactly the crashed processes.  This is the
   finite-trace reading Spec.Fd_props gives strong completeness and
   eventual strong accuracy (a property stabilises iff it holds at the
   end of the run), without its per-observer trace walks. *)
let check_final_views o trace ~component ~n =
  let last = Array.make n Sim.Pid.Set.empty in
  let crashed = ref Sim.Pid.Set.empty in
  Sim.Trace.iter trace (fun e ->
      match e.Sim.Trace.body with
      | Sim.Trace.Fd_view { pid; component = c; suspected; _ } when String.equal c component ->
        last.(pid) <- suspected
      | Crash { pid; _ } -> crashed := Sim.Pid.Set.add pid !crashed
      | _ -> ());
  List.iter
    (fun p ->
      if (not (Sim.Pid.Set.mem p !crashed)) && not (Sim.Pid.Set.equal last.(p) !crashed) then
        fail o "<>P at the horizon: %s suspects %s, crashed %s" (Sim.Pid.to_string p)
          (Format.asprintf "%a" Sim.Pid.pp_set last.(p))
          (Format.asprintf "%a" Sim.Pid.pp_set !crashed))
    (Sim.Pid.all ~n)

let detector_job probe o ~on_trace ~label ~link_seed (d : detector_input) =
  let engine, fd =
    Probe.phase probe "setup" (fun () ->
        let engine = make_engine probe ~seed:link_seed ~n:d.n ~gst:d.gst in
        Sim.Fault.apply engine d.crashes;
        let fd = Scenario.install_detector engine d.detector in
        Probe.observe_detector probe fd;
        (engine, fd))
  in
  fun () ->
    simulate probe o engine ~horizon:d.horizon;
    let trace = Sim.Engine.trace engine in
    on_trace trace;
    let component = Fd.Fd_handle.component fd in
    if d.audit then begin
      let run = Spec.Fd_props.make_run ~component ~n:d.n trace in
      let matrix = spec probe o "spec.fd" (fun () -> Spec.Fd_props.class_matrix run) in
      List.iter
        (fun prop ->
          match List.find_opt (fun (p, _) -> p = prop) matrix with
          | Some (_, r) when r.Spec.Fd_props.holds -> ()
          | Some _ | None ->
            fail o "%s: %s fails %s" (Fd.Classes.name d.claimed) label
              (Fd.Classes.property_name prop))
        (Fd.Classes.properties d.claimed)
    end
    else check_final_views o trace ~component ~n:d.n;
    check_clock probe o trace;
    let report =
      Probe.phase probe "obs.qos" (fun () ->
          Sim.Trace_qos.report ~component ~n:d.n ~horizon:d.horizon trace)
    in
    let rollup =
      Probe.phase probe "obs.rollup" (fun () ->
          Obs.Rollup.to_json [ { Obs.Rollup.name = label; component; report } ])
    in
    (* Completeness from the QoS fold: every crash detected by every
       process alive at the horizon. *)
    List.iter
      (fun (pr : Obs.Qos.pair) ->
        (match (pr.subject_crashed_at, pr.detection_time) with
        | Some _, None when pr.window = d.horizon ->
          fail o "QoS: p%d never detected the crash of p%d" (pr.observer + 1) (pr.subject + 1)
        | Some _, Some td -> o.latencies <- td :: o.latencies
        | _ -> ());
        o.quality_num <- o.quality_num +. float_of_int (pr.up_time - pr.mistake_time);
        o.quality_den <- o.quality_den +. float_of_int pr.up_time;
        o.mistakes <- o.mistakes + pr.mistakes)
      report.Obs.Qos.pairs;
    if d.audit then begin
      let buf = Buffer.create 65536 in
      Probe.phase probe "export.jsonl" (fun () -> Sim.Trace_export.jsonl buf trace);
      o.export_bytes <- Buffer.length buf;
      Buffer.clear buf;
      Probe.phase probe "export.chrome" (fun () -> Sim.Trace_export.chrome buf trace);
      o.export_bytes <- o.export_bytes + Buffer.length buf
    end;
    collect o engine;
    o.digest <- Digest.to_hex (Digest.string rollup)

(* ---------------------------------------------------------------- *)
(* Running one job                                                  *)
(* ---------------------------------------------------------------- *)

let prepare probe o ~on_trace job =
  match job.input with
  | Consensus c -> consensus_job probe o ~on_trace ~link_seed:job.link_seed c
  | Detector d -> detector_job probe o ~on_trace ~label:job.label ~link_seed:job.link_seed d

(* The job's set-up alone, discarding the engine it builds: its time. *)
let setup_only job =
  let probe = Probe.create ~traced:false in
  ignore (prepare probe (blank probe) ~on_trace:ignore job : unit -> unit);
  probe.Probe.setup_s

(* [on_trace] sees the job's finished trace before any check runs. *)
let run_job ?(on_trace = ignore) ~traced job =
  let probe = Probe.create ~traced in
  let o = blank probe in
  let w0 = Gc.minor_words () in
  let t0 = Probe.now () in
  (try Probe.phase probe "job" (fun () -> prepare probe o ~on_trace job ())
   with e -> fail o "%s raised %s" job.label (Printexc.to_string e));
  o.wall_s <- Probe.now () -. t0;
  o.words <- Gc.minor_words () -. w0;
  o.digest <-
    Printf.sprintf "%s|events=%d|records=%d|msgs=%d|%s" job.label o.events o.records o.msgs
      o.digest;
  o

(* The job's trace bytes, as the JSONL exporter writes them, folded into
   a chained MD5 one 1 MiB chunk at a time: a large run's export would
   not fit in memory next to its trace.  Used by the determinism checks. *)
let trace_digest trace =
  let line = Buffer.create 256 in
  let chunk = Bytes.create (1 lsl 20) in
  let fill = ref 0 in
  let h = ref (Digest.string "") in
  let flush () =
    h := Digest.string (!h ^ Digest.subbytes chunk 0 !fill);
    fill := 0
  in
  Sim.Trace.iter trace (fun e ->
      Buffer.clear line;
      Sim.Trace_export.jsonl_event line e;
      let len = Buffer.length line in
      if !fill + len > Bytes.length chunk then flush ();
      Buffer.blit line 0 chunk !fill len;
      fill := !fill + len);
  flush ();
  Digest.to_hex !h

(* Retained heap words per trace record (the event, its body and its
   array slot), over a prefix of the trace: walking a whole large trace
   with [Obj.reachable_words] costs more memory than the trace itself. *)
let words_per_record trace =
  let sample = Array.of_seq (Seq.take 50_000 (Sim.Trace.to_seq trace)) in
  float_of_int (Obj.reachable_words (Obj.repr sample))
  /. float_of_int (max 1 (Array.length sample))
