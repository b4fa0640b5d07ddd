(* Queries over a loaded JSONL trace: filtering, the happens-before cone
   of an event, line-level diffing of two exports, and the QoS rollup. *)

open Sim.Trace

let component_of = function
  | Send { component; _ }
  | Deliver { component; _ }
  | Drop { component; _ }
  | Fd_view { component; _ }
  | Span_begin { component; _ }
  | Span_end { component; _ } -> Some component
  | Crash _ | Propose _ | Decide _ | Note _ -> None

(* An event "involves" a process if it happens there, or if it is a link
   event with that endpoint. *)
let involves p = function
  | Send { src; dst; _ } | Deliver { src; dst; _ } | Drop { src; dst; _ } -> src = p || dst = p
  | body -> pid_of body = Some p

let matches ?component ?pid ?from_t ?to_t e =
  (match component with None -> true | Some c -> component_of e.body = Some c)
  && (match pid with None -> true | Some p -> involves p e.body)
  && (match from_t with None -> true | Some t -> time_of e.body >= t)
  && match to_t with None -> true | Some t -> time_of e.body <= t

let filter ?component ?pid ?from_t ?to_t events =
  List.filter (matches ?component ?pid ?from_t ?to_t) events

let first_decide ?pid events =
  List.find_opt
    (fun e ->
      match e.body with
      | Decide { pid = q; _ } -> ( match pid with None -> true | Some p -> p = q)
      | _ -> false)
    events

let find_seq ~seq events = List.find_opt (fun e -> e.seq = seq) events

(* The happens-before cone of a target event: walk immediate causal
   predecessors backwards to a fixpoint.  Immediate predecessors of e:
   - the latest earlier event at the same process (program order);
   - for a deliver or a drop, the matching send (same message id).
   Everything reachable is in the cone; the result includes the target and
   comes back in seq order. *)
let ancestry events ~seq:target_seq =
  let by_seq = Hashtbl.create 256 in
  List.iter (fun e -> Hashtbl.replace by_seq e.seq e) events;
  (* prev_at_pid: seq of e -> seq of the previous event at e's process. *)
  let prev_at_pid = Hashtbl.create 256 in
  let send_of_msg = Hashtbl.create 256 in
  let last_at_pid = Hashtbl.create 16 in
  List.iter
    (fun e ->
      (match pid_of e.body with
      | Some p ->
        (match Hashtbl.find_opt last_at_pid p with
        | Some prev -> Hashtbl.replace prev_at_pid e.seq prev
        | None -> ());
        Hashtbl.replace last_at_pid p e.seq
      | None -> ());
      match e.body with Send { msg; _ } -> Hashtbl.replace send_of_msg msg e.seq | _ -> ())
    events;
  let in_cone = Hashtbl.create 256 in
  let rec visit seq =
    if not (Hashtbl.mem in_cone seq) then begin
      Hashtbl.add in_cone seq ();
      match Hashtbl.find_opt by_seq seq with
      | None -> ()
      | Some e -> (
        (match Hashtbl.find_opt prev_at_pid seq with Some p -> visit p | None -> ());
        match e.body with
        | Deliver { msg; _ } | Drop { msg; _ } ->
          Option.iter visit (Hashtbl.find_opt send_of_msg msg)
        | _ -> ())
    end
  in
  visit target_seq;
  List.filter (fun e -> Hashtbl.mem in_cone e.seq) events

type divergence = {
  line : int;  (* 1-based *)
  left : string option;  (* [None] = left file ended first *)
  right : string option;
}

(* First line where the two exports differ; [None] = identical. *)
let diff_lines a b =
  let rec walk i a b =
    match (a, b) with
    | [], [] -> None
    | x :: a', y :: b' ->
      if String.equal x y then walk (i + 1) a' b'
      else Some { line = i; left = Some x; right = Some y }
    | x :: _, [] -> Some { line = i; left = Some x; right = None }
    | [], y :: _ -> Some { line = i; left = None; right = Some y }
  in
  walk 1 a b

let max_pid_of = function
  | Send { src; dst; _ } | Deliver { src; dst; _ } | Drop { src; dst; _ } -> Stdlib.max src dst
  | Fd_view { pid; suspected; trusted; _ } ->
    Sim.Pid.Set.fold Stdlib.max suspected (Stdlib.max pid (Option.value trusted ~default:pid))
  | Crash { pid; _ } | Propose { pid; _ } | Decide { pid; _ } | Note { pid; _ }
  | Span_begin { pid; _ } | Span_end { pid; _ } -> pid

(* QoS rollup of a loaded export: the decoded bodies are re-recorded into
   a fresh trace and rolled up by the in-process code (Sim.Trace_qos, the
   fold behind `ecfd qos` and bench e22), one scenario per detector
   component (or just [component]).  n and the horizon default to what
   the events show (max pid + 1, last event time).  The fold reads no
   seq/lc stamps, so a filtered export rolls up too. *)
let rollup ?n ?horizon ?component events =
  let trace = create () in
  let max_at, max_pid =
    List.fold_left
      (fun (max_at, max_pid) e ->
        record trace e.body;
        (Stdlib.max max_at (time_of e.body), Stdlib.max max_pid (max_pid_of e.body)))
      (0, -1) events
  in
  let n = Stdlib.max 1 (Option.value n ~default:(max_pid + 1)) in
  let horizon = Option.value horizon ~default:max_at in
  let components =
    match component with Some c -> [ c ] | None -> Sim.Trace_qos.components trace
  in
  Obs.Rollup.to_json
    (List.map
       (fun c ->
         {
           Obs.Rollup.name = c;
           component = c;
           report = Sim.Trace_qos.report ~component:c ~n ~horizon trace;
         })
       components)
