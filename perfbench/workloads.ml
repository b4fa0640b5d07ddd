(* The three workloads.  Each draws every job's inputs from the workload
   seed, and is shaped so that one group of layers does most of its work
   and the others almost none (README.md, "Workloads"). *)

type t = {
  name : string;
  domains : int;  (** Pool domains; 0 runs the jobs directly, without the pool. *)
  jobs : seed:int -> Jobs.job list;
}

(* ◇C consensus under suspicion noise: the E15 grid.  In each job, k
   random non-leaders NACK the otherwise stable, accurate leader forever,
   under the paper's extended wait and under the strict first-majority
   wait.  E15 draws each NACKer independently with probability q; here k
   is fixed per cell, so the work of a pass does not swing with the seed.
   k is 0, 3 or 4 (q = 0, 3/8, 1/2): with one or two NACKers the strict
   wait sometimes decides after a random number of rounds (one seed,
   k = 2: round 355), which would make both the work and the outcomes
   of a pass depend on the seed.  The seed picks who NACKs and every
   link delay. *)
let consensus_trials = 6
let nacker_counts = [ 0; 3; 4 ]

let consensus_noise =
  let jobs ~seed =
    let n = Jobs.consensus_n in
    let rng = Sim.Rng.create ~seed in
    let jobs =
      List.concat_map
        (fun k ->
          List.concat_map
            (fun strict ->
              List.init consensus_trials (fun trial ->
                  let others = Array.of_list (Sim.Pid.others ~n 0) in
                  Sim.Rng.shuffle rng others;
                  let nackers = List.sort Sim.Pid.compare (Array.to_list (Array.sub others 0 k)) in
                  {
                    Jobs.label =
                      Printf.sprintf "k%d-%s-%d" k (if strict then "strict" else "extended") trial;
                    link_seed = Sim.Rng.int rng ~bound:0x3FFF_FFFF;
                    input = Jobs.Consensus { strict; nackers };
                    heavy = strict && k > 0;
                  }))
            [ false; true ])
        nacker_counts
    in
    (* Longest first, so the pool's last jobs are short ones. *)
    List.filter (fun j -> j.Jobs.heavy) jobs @ List.filter (fun j -> not j.Jobs.heavy) jobs
  in
  { name = "consensus-noise"; domains = min 2 (Exec.Pool.recommended_domains ()); jobs }

(* Detector-only runs read back through the whole audit: class matrix,
   QoS fold, rollup JSON and both exporters. *)
let audit_per_detector = 4

let detector_audit =
  let detectors =
    [
      (Scenario.Heartbeat_p, Fd.Classes.P_eventual);
      (Scenario.Ring_s, Fd.Classes.S_eventual);
      (Scenario.Ec_from_leader, Fd.Classes.Ec);
    ]
  in
  let n = 12 and horizon = 4000 and gst = 250 in
  let jobs ~seed =
    let rng = Sim.Rng.create ~seed in
    List.concat_map
      (fun (detector, claimed) ->
        List.init audit_per_detector (fun i ->
            let victims = Array.of_list (Sim.Pid.all ~n) in
            Sim.Rng.shuffle rng victims;
            let t1 = Sim.Rng.int_in_range rng ~lo:300 ~hi:1200 in
            let t2 = Sim.Rng.int_in_range rng ~lo:(t1 + 100) ~hi:2000 in
            let crashes = Sim.Fault.crashes [ (victims.(0), t1); (victims.(1), t2) ] in
            {
              Jobs.label = Printf.sprintf "%s-%d" (Scenario.detector_name detector) i;
              link_seed = Sim.Rng.int rng ~bound:0x3FFF_FFFF;
              input = Jobs.Detector { detector; claimed; n; horizon; gst; crashes; audit = true };
              heavy = false;
            }))
      detectors
  in
  { name = "detector-audit"; domains = 1; jobs }

(* One long all-to-all ◇P run: the write side (engine, links, detector
   handlers, trace recording), checked with linear-cost checks only. *)
let heartbeat_large =
  let jobs ~seed =
    [
      {
        Jobs.label = "heartbeat-p-64";
        link_seed = Sim.Rng.int (Sim.Rng.create ~seed) ~bound:0x3FFF_FFFF;
        input =
          Jobs.Detector
            {
              detector = Scenario.Heartbeat_p;
              claimed = Fd.Classes.P_eventual;
              n = 64;
              horizon = 3000;
              gst = 500;
              crashes = Sim.Fault.crashes [ (0, 700); (32, 1500) ];
              audit = false;
            };
        heavy = true;
      };
    ]
  in
  { name = "heartbeat-large"; domains = 0; jobs }

let all = [ consensus_noise; detector_audit; heartbeat_large ]
let find name = List.find_opt (fun w -> String.equal w.name name) all

(* One pass: every job once, through the pool when the workload uses it
   (unless [sequential]).  Each pool worker takes the next job as soon
   as its previous one ends.  [on_first_trace] sees the first job's
   finished trace. *)
let run_pass w ~sequential ~traced ~on_first_trace jobs =
  let closures =
    List.mapi
      (fun i j () -> Jobs.run_job ~traced ~on_trace:(if i = 0 then on_first_trace else ignore) j)
      jobs
  in
  if sequential || w.domains = 0 then List.map (fun f -> f ()) closures
  else Exec.Pool.run ~domains:w.domains closures
