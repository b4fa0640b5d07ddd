type report = {
  holds : bool;
  since : Sim.Sim_time.t option;
}

type run = {
  trace : Sim.Trace.t;
  component : string;
  n : int;
  qos : Obs.Qos.t;
}

let make_run ~component ~n trace =
  let qos = Obs.Qos.create ~n in
  Sim.Trace_qos.feed trace qos ~component;
  { trace; component; n; qos }

let crashed run p = Option.is_some (Obs.Qos.crashed_at run.qos p)
let correct_processes run = List.filter (fun p -> not (crashed run p)) (Sim.Pid.all ~n:run.n)
let crashed_processes run = List.filter (crashed run) (Sim.Pid.all ~n:run.n)

(* Conjunction of stabilization instants: the latest if all hold, and
   vacuously 0 for none. *)
let all results =
  List.fold_left
    (fun acc r ->
      match (acc, r) with
      | Some a, Some b -> Some (Sim.Sim_time.max a b)
      | _, None | None, _ -> None)
    (Some Sim.Sim_time.zero) results

(* Disjunction: the earliest that holds. *)
let any results =
  List.fold_left
    (fun acc r ->
      match (acc, r) with
      | Some a, Some b -> Some (Sim.Sim_time.min a b)
      | Some a, None -> Some a
      | None, other -> other)
    None results

let report_of_since since = { holds = Option.is_some since; since }

(* Stabilization instant of "p suspects q" ([~suspected:true]) or of "p
   does not suspect q", through the end of the run. *)
let suspicion run ~suspected p q =
  match Obs.Qos.status run.qos ~observer:p ~subject:q with
  | Some (now, since) when Bool.equal now suspected -> Some since
  | Some _ | None -> None

(* Stabilization instant of "p trusts l". *)
let trusting run p l =
  match Obs.Qos.transitions run.qos p with
  | (at, _, Some current) :: _ when Sim.Pid.equal current l -> Some at
  | _ -> None

let for_all_pairs run ~targets ~suspected =
  all
    (List.concat_map
       (fun p -> List.map (suspicion run ~suspected p) targets)
       (correct_processes run))

let strong_completeness run =
  report_of_since (for_all_pairs run ~targets:(crashed_processes run) ~suspected:true)

let weak_completeness run =
  let observers = correct_processes run in
  let per_victim q = any (List.map (fun p -> suspicion run ~suspected:true p q) observers) in
  report_of_since (all (List.map per_victim (crashed_processes run)))

let eventual_strong_accuracy run =
  report_of_since (for_all_pairs run ~targets:(correct_processes run) ~suspected:false)

let eventual_weak_accuracy run =
  let correct = correct_processes run in
  let for_leader l = all (List.map (fun p -> suspicion run ~suspected:false p l) correct) in
  report_of_since (any (List.map for_leader correct))

let leadership run =
  let correct = correct_processes run in
  let for_leader l = all (List.map (fun p -> trusting run p l) correct) in
  report_of_since (any (List.map for_leader correct))

let trusted_not_suspected run =
  report_of_since
    (all (List.map (Obs.Qos.coherent_since run.qos) (correct_processes run)))

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
  List.find_opt
    (fun l -> List.for_all (fun p -> Option.is_some (trusting run p l)) correct)
    correct

let detection_time run ~victim = for_all_pairs run ~targets:[ victim ] ~suspected:true

let leader_changes run p = Stdlib.max 0 (List.length (Obs.Qos.transitions run.qos p) - 1)

let leader_changes_after run p ~after =
  List.length (List.filter (fun (at, _, _) -> at > after) (Obs.Qos.transitions run.qos p))

let false_suspicion_events_after run ~after =
  let correct = correct_processes run in
  let fresh p q =
    List.length
      (List.filter (fun at -> at > after) (Obs.Qos.suspicion_onsets run.qos ~observer:p ~subject:q))
  in
  List.fold_left
    (fun acc p -> List.fold_left (fun acc q -> acc + fresh p q) acc correct)
    0 correct

let demotions_of_live_leaders run p =
  let alive_at q at =
    match Obs.Qos.crashed_at run.qos q with Some crash -> crash > at | None -> true
  in
  List.length
    (List.filter
       (fun (at, prev, _) -> match prev with Some q -> alive_at q at | None -> false)
       (Obs.Qos.transitions run.qos p))
