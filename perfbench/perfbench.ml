(* The ecfd benchmark (README.md in this directory).

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Runs passes over the workload's seeded job set until S seconds have
   gone by.  With --trace 0 every pass is untraced and the end-to-end
   metrics are printed; with --trace 1 untraced and traced passes
   alternate and the per-layer metrics are printed.  The last line of
   stdout is the JSON result; a results file (and, traced, a span file)
   goes to perfbench/out/. *)

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S seconds to measure for");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  { workload = !workload; seed = !seed; seconds = float_of_int !seconds; trace = !trace = 1 }

(* ---------------------------------------------------------------- *)
(* Passes                                                           *)
(* ---------------------------------------------------------------- *)

type pass = {
  traced : bool;
  first_trace : (string * float) option;
      (** First job's trace digest and retained words per record, when kept. *)
  wall_s : float;
  cpu_s : float;
  outcomes : Jobs.outcome list;
  pool : Exec.Pool.metrics;
  digest : string;
}

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* [keep] holds on to the first job's trace until the pass has been
   timed, then digests its bytes and measures its footprint. *)
let run_pass ?(sequential = false) (w : Workloads.t) ~seed ~traced ~keep =
  (* Every pass starts from a collected heap, so no pass pays for the
     garbage of the one before it. *)
  Gc.compact ();
  Exec.Pool.reset_metrics ();
  let kept = ref None in
  let on_first_trace = if keep then fun tr -> kept := Some tr else ignore in
  let t0 = Probe.now () and c0 = cpu () in
  let outcomes = Workloads.run_pass w ~sequential ~traced ~on_first_trace (w.jobs ~seed) in
  let wall_s = Probe.now () -. t0 and cpu_s = cpu () -. c0 in
  {
    traced;
    first_trace = Option.map (fun tr -> (Jobs.trace_digest tr, Jobs.words_per_record tr)) !kept;
    wall_s;
    cpu_s;
    outcomes;
    pool = Exec.Pool.metrics ();
    digest = Digest.to_hex (Digest.string (String.concat "\n" (List.map (fun o -> o.Jobs.digest) outcomes)));
  }

let min_passes = 3

(* Set-up time, measured apart from the passes so that it gets many
   samples: input generation plus every job's set-up (engine creation,
   detector and protocol install, proposals).  A batch of samples is
   taken before every timed pass and after the last, so the median
   spans the whole run rather than one moment of it.  Each batch starts
   on a collected heap, so the samples reuse memory the process already
   has instead of faulting in fresh pages. *)
let setup_reps = 21

let measure_setup (w : Workloads.t) ~seed =
  Gc.full_major ();
  List.init setup_reps (fun _ ->
      (* Start each sample with an empty minor heap. *)
      Gc.minor ();
      let t0 = Probe.now () in
      let jobs = w.jobs ~seed in
      List.fold_left (fun acc j -> acc +. Jobs.setup_only j) (Probe.now () -. t0) jobs)

type run = {
  warmup : pass;
  peak_heap_words : int;  (** [Gc.top_heap_words] right after the warm-up. *)
  setup : float list;
  passes : pass list;
}

(* A warm-up pass first: it runs the jobs one at a time in this domain,
   grows the heap, warms the caches and is left out of the timings.  The
   peak heap is read right after it, so it does not depend on how two
   domains' collections interleave.  Then a closed loop over passes,
   each after a batch of set-up samples, until the time is up: untraced
   only, or untraced and traced alternately.  The warm-up and the first
   timed pass keep their first job's trace: the second is a same-seed
   replay of the first. *)
let measure (w : Workloads.t) args =
  let warmup = run_pass ~sequential:true w ~seed:args.seed ~traced:false ~keep:true in
  let peak_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let setup = ref [] in
  let start = Probe.now () in
  let rec loop acc i =
    setup := measure_setup w ~seed:args.seed @ !setup;
    let count traced = List.length (List.filter (fun p -> p.traced = traced) acc) in
    let enough =
      count false >= min_passes && ((not args.trace) || count true >= min_passes)
    in
    if enough && Probe.now () -. start >= args.seconds then List.rev acc
    else
      let traced = args.trace && i mod 2 = 1 in
      loop (run_pass w ~seed:args.seed ~traced ~keep:(i = 0) :: acc) (i + 1)
  in
  let passes = loop [] 0 in
  { warmup; peak_heap_words; setup = !setup; passes }

(* ---------------------------------------------------------------- *)
(* Statistics                                                       *)
(* ---------------------------------------------------------------- *)

let median xs =
  match List.sort Float.compare xs with
  | [] -> 0.
  | s ->
    let a = Array.of_list s in
    let k = Array.length a in
    if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile p xs =
  match List.sort Float.compare xs with
  | [] -> 0.
  | s ->
    let a = Array.of_list s in
    let k = Array.length a in
    a.(max 0 (min (k - 1) (int_of_float (Float.ceil (p *. float_of_int k)) - 1)))

let ratio a b = if b = 0. then 0. else a /. b
let sumf f os = List.fold_left (fun acc o -> acc +. f o) 0. os
let sumi f os = List.fold_left (fun acc o -> acc + f o) 0 os
let fi = float_of_int

(* ---------------------------------------------------------------- *)
(* Metrics                                                          *)
(* ---------------------------------------------------------------- *)

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }

let end_to_end ~setup ~peak_heap_words untraced =
  let last = (List.hd untraced).outcomes in
  let med f = median (List.map f untraced) in
  [
    m "wall_s" "s" (med (fun p -> p.wall_s));
    m "cpu_s" "s" (med (fun p -> p.cpu_s));
    m "setup_s" "s" (median setup);
    m "minor_words_per_event" "words/event"
      (ratio (sumf (fun o -> o.Jobs.words) last) (fi (sumi (fun o -> o.Jobs.events) last)));
    m "peak_heap_mb" "MB" (fi (peak_heap_words * (Sys.word_size / 8)) /. 1048576.);
    m "sim_quality_frac" "frac"
      (ratio (sumf (fun o -> o.Jobs.quality_num) last) (sumf (fun o -> o.Jobs.quality_den) last));
    m "sim_latency_ticks" "ticks"
      (median (List.concat_map (fun o -> List.map fi o.Jobs.latencies) last));
    m "sim_msgs_per_job" "msgs"
      (ratio (fi (sumi (fun o -> o.Jobs.msgs) last)) (fi (List.length last)));
  ]

let per_layer (w : Workloads.t) ~words_per_record ~untraced ~traced =
  let first = (List.hd traced).outcomes in
  (* The registry hook allocates, so allocation comes from an untraced pass. *)
  let clean = (List.hd untraced).outcomes in
  let c f = fi (sumi f first) in
  let med f = median (List.map f traced) in
  let span name = med (fun p -> sumf (fun o -> Probe.span_s o.Jobs.probe name) p.outcomes) in
  let run_s = span "simulate" in
  let events = c (fun o -> o.Jobs.events) in
  let rounds = c (fun o -> o.Jobs.rounds) in
  let jsonl_s = span "export.jsonl" and chrome_s = span "export.chrome" in
  let export_bytes = c (fun o -> o.Jobs.export_bytes) in
  let job_ms =
    List.concat_map (fun p -> List.map (fun o -> o.Jobs.wall_s *. 1000.) p.outcomes) traced
  in
  let covered, total =
    List.fold_left
      (fun acc p ->
        List.fold_left
          (fun (cv, tt) o ->
            let t, c = Probe.coverage o.Jobs.probe in
            (cv +. c, tt +. t))
          acc p.outcomes)
      (0., 0.) traced
  in
  let pooled = w.domains > 0 in
  [
    m "exec.pool_jobs" "count" (if pooled then fi (List.hd traced).pool.jobs else 0.);
    m "exec.pool_busy_s" "s" (med (fun p -> p.pool.busy_s));
    m "exec.pool_speedup" "x" (med (fun p -> ratio p.pool.busy_s p.pool.wall_s));
    m "exec.pool_idle_frac" "frac"
      (if pooled then
         med (fun p -> 1. -. ratio p.pool.busy_s (p.pool.wall_s *. fi w.domains))
       else 0.);
    m "exec.job_ms_p50" "ms" (percentile 0.5 job_ms);
    m "exec.job_ms_p95" "ms" (percentile 0.95 job_ms);
    m "engine.events" "count" events;
    m "engine.run_s" "s" run_s;
    m "engine.events_per_s" "1/s" (ratio events run_s);
    m "engine.run_words_per_event" "words/event" (ratio (sumf (fun o -> o.Jobs.run_words) clean) events);
    m "engine.timers_set" "count" (c (fun o -> o.Jobs.timers_set));
    m "engine.timers_fired" "count" (c (fun o -> o.Jobs.timers_fired));
    m "engine.queue_high_water" "count"
      (fi (List.fold_left (fun acc o -> max acc o.Jobs.queue_high_water) 0 first));
    m "link.fate_calls" "count" (c (fun o -> o.Jobs.probe.Probe.fate_calls));
    m "link.fate_s" "s" (med (fun p -> sumf (fun o -> o.Jobs.probe.Probe.fate_s) p.outcomes));
    m "link.drop_frac" "frac"
      (ratio (c (fun o -> o.Jobs.probe.Probe.fate_drops)) (c (fun o -> o.Jobs.probe.Probe.fate_calls)));
    m "trace.records" "count" (c (fun o -> o.Jobs.records));
    m "trace.records_per_event" "records/event" (ratio (c (fun o -> o.Jobs.records)) events);
    m "trace.words_per_record" "words/record" words_per_record;
    m "fd.msgs_sent" "count" (c (fun o -> o.Jobs.fd_msgs));
    m "fd.view_changes" "count" (c (fun o -> o.Jobs.probe.Probe.view_changes));
    m "consensus.rounds" "count" rounds;
    m "consensus.msgs_sent" "count" (c (fun o -> o.Jobs.consensus_msgs));
    m "broadcast.msgs_sent" "count" (c (fun o -> o.Jobs.broadcast_msgs));
    m "consensus.msgs_per_round" "msgs/round" (ratio (c (fun o -> o.Jobs.consensus_msgs)) rounds);
    m "consensus.decisions_per_round" "decisions/round" (ratio (c (fun o -> o.Jobs.decisions)) rounds);
    m "spec.consensus_s" "s" (span "spec.consensus");
    m "spec.clock_s" "s" (span "spec.clock");
    m "spec.fd_s" "s" (span "spec.fd");
    m "spec.words" "words" (sumf (fun o -> o.Jobs.spec_words) clean);
    m "obs.qos_s" "s" (span "obs.qos");
    m "obs.rollup_s" "s" (span "obs.rollup");
    m "obs.registry_ops" "count" (c (fun o -> o.Jobs.probe.Probe.registry_ops));
    m "obs.qos_mistakes" "count" (c (fun o -> o.Jobs.mistakes));
    m "export.jsonl_s" "s" jsonl_s;
    m "export.chrome_s" "s" chrome_s;
    m "export.bytes" "bytes" export_bytes;
    m "export.mb_per_s" "MB/s" (ratio (export_bytes /. 1e6) (jsonl_s +. chrome_s));
    m "bench.trace_overhead_frac" "frac"
      (ratio (med (fun p -> p.wall_s)) (median (List.map (fun p -> p.wall_s) untraced)) -. 1.);
    m "bench.span_coverage_frac" "frac" (ratio covered total);
  ]

(* ---------------------------------------------------------------- *)
(* Output                                                           *)
(* ---------------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit of the measured value; JSON has no NaN or infinity. *)
let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.name)
             (json_number x.value) (json_string x.unit))
         ms)
  ^ "}"

let json_fields kvs =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) kvs) ^ "}"

let out_dir = Filename.concat "perfbench" "out"

let write_file name contents =
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat out_dir name in
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  path

(* Spans of the traced passes, as Chrome trace events: one process per
   pass, one thread per job. *)
let spans_json passes =
  let origin = match passes with p :: _ -> p | [] -> [] in
  let t_origin =
    List.fold_left
      (fun acc o -> List.fold_left (fun a s -> Float.min a s.Probe.t0) acc (Probe.spans o.Jobs.probe))
      infinity origin
  in
  let events =
    List.concat
      (List.mapi
         (fun pi outcomes ->
           List.concat
             (List.mapi
                (fun ji o ->
                  let spans = Probe.spans o.Jobs.probe in
                  List.map
                    (fun (s : Probe.span) ->
                      let child_s =
                        List.fold_left
                          (fun acc (c : Probe.span) ->
                            if c.parent = s.id then acc +. (c.t1 -. c.t0) else acc)
                          0. spans
                      in
                      let us x = Printf.sprintf "%.3f" (x *. 1e6) in
                      json_fields
                        [
                          ("name", json_string s.name);
                          ("ph", "\"X\"");
                          ("pid", string_of_int pi);
                          ("tid", string_of_int ji);
                          ("ts", us (s.t0 -. t_origin));
                          ("dur", us (s.t1 -. s.t0));
                          ( "args",
                            json_fields
                              [
                                ("id", string_of_int s.id);
                                ("parent", string_of_int s.parent);
                                ("self_us", us (s.t1 -. s.t0 -. child_s));
                              ] );
                        ])
                    spans)
                outcomes))
         passes)
  in
  "{\"traceEvents\": [\n" ^ String.concat ",\n" events ^ "\n]}\n"

(* ---------------------------------------------------------------- *)
(* Main                                                             *)
(* ---------------------------------------------------------------- *)

let () =
  let args = parse_args () in
  let w =
    match Workloads.find args.workload with
    | Some w -> w
    | None ->
      Printf.eprintf "perfbench: unknown workload %S (one of: %s)\n" args.workload
        (String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all));
      exit 2
  in
  let { warmup; peak_heap_words; setup; passes } = measure w args in
  let untraced = List.filter (fun p -> not p.traced) passes in
  let traced = List.filter (fun p -> p.traced) passes in
  (* Determinism: every pass produced the same outputs as the warm-up,
     and the same-seed replay of the first job gave the same trace bytes. *)
  let trace_digest, words_per_record =
    match warmup.first_trace with Some t -> t | None -> ("", 0.)
  in
  let first = List.hd warmup.outcomes in
  if not (List.for_all (fun p -> String.equal p.digest warmup.digest) passes) then
    Jobs.fail first "determinism: passes disagree on their outputs";
  if (List.hd passes).first_trace <> warmup.first_trace then
    Jobs.fail first "determinism: same-seed replay of the first job gave different trace bytes";
  let all_outcomes = List.concat_map (fun p -> p.outcomes) (warmup :: passes) in
  let failures = List.filter_map (fun o -> o.Jobs.failure) all_outcomes in
  List.iter (fun msg -> prerr_endline ("perfbench: FAILED " ^ msg)) failures;
  let metrics =
    if args.trace then per_layer w ~words_per_record ~untraced ~traced
    else end_to_end ~setup ~peak_heap_words untraced
  in
  let workload_digest =
    Digest.to_hex (Digest.string (warmup.digest ^ trace_digest))
  in
  let host =
    [
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", json_string Sys.ocaml_version);
      ("pool_domains", string_of_int (max 1 w.domains));
      ("shard_count", string_of_int first.Jobs.shard_count);
    ]
  in
  let digest =
    [
      ("workload", json_string workload_digest);
      ("outputs", json_string warmup.digest);
      ("first_job_trace", json_string trace_digest);
    ]
  in
  let per_pass =
    List.map
      (fun p ->
        json_fields
          [
            ("traced", string_of_bool p.traced);
            ("wall_s", json_number p.wall_s);
            ("cpu_s", json_number p.cpu_s);
            ("jobs", string_of_int (List.length p.outcomes));
          ])
      passes
  in
  let tag = Printf.sprintf "%s-seed%d-trace%d" w.name args.seed (if args.trace then 1 else 0) in
  let spans_file =
    if args.trace then
      Some (write_file (tag ^ ".spans.json") (spans_json (List.map (fun p -> p.outcomes) traced)))
    else None
  in
  let results =
    write_file (tag ^ ".json")
      (json_fields
         ([
            ("workload", json_string w.name);
            ("seed", string_of_int args.seed);
            ("seconds", json_number args.seconds);
            ("trace", string_of_bool args.trace);
            ("host", json_fields host);
            ("digest", json_fields digest);
            ("passes", "[" ^ String.concat ", " per_pass ^ "]");
            ("metrics", json_metrics metrics);
          ]
         @ match spans_file with Some f -> [ ("spans", json_string f) ] | None -> [])
      ^ "\n")
  in
  Printf.printf "workload %s seed %d: %d passes (%d traced), %d jobs per pass\n" w.name args.seed
    (List.length passes) (List.length traced)
    (List.length (List.hd passes).outcomes);
  Printf.printf "host: %s\n"
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) host));
  Printf.printf "digest: %s\n" (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) digest));
  List.iter (fun x -> Printf.printf "  %-32s %18.6f %s\n" x.name x.value x.unit) metrics;
  Printf.printf "results: %s%s\n" results
    (match spans_file with Some f -> ", spans: " ^ f | None -> "");
  Printf.printf "%s\n"
    (json_fields
       [
         ("correct", string_of_bool (failures = []));
         ("attempted", string_of_int (List.length all_outcomes));
         ("failed", string_of_int (List.length failures));
         ("metrics", json_metrics metrics);
       ])
