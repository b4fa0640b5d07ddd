(* Per-job instrumentation: phase timing, spans and layer counters.

   One probe belongs to one job and lives on the domain that runs it, so
   nothing here is shared between domains.  Phase timing is always on
   (the end-to-end run needs set-up time and per-job wall time); spans
   and the layer counters are kept only when the probe is traced. *)

let now = Unix.gettimeofday

type span = {
  id : int;
  parent : int;  (** [-1] for a job's root span. *)
  name : string;
  t0 : float;
  t1 : float;
}

type t = {
  traced : bool;
  mutable next_id : int;
  mutable stack : int list;
  mutable spans : span list;
  mutable setup_s : float;
  (* Layer counters, fed by the wrappers below on traced probes only. *)
  mutable fate_calls : int;
  mutable fate_s : float;
  mutable fate_drops : int;
  mutable records : int;
  mutable registry_ops : int;
  mutable view_changes : int;
}

let create ~traced =
  {
    traced;
    next_id = 0;
    stack = [];
    spans = [];
    setup_s = 0.;
    fate_calls = 0;
    fate_s = 0.;
    fate_drops = 0;
    records = 0;
    registry_ops = 0;
    view_changes = 0;
  }

(* Time [f] as the phase [name]: a child of the innermost open phase.
   Set-up phases ("setup") also add to the job's set-up time. *)
let phase t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let t0 = now () in
  let finish () =
    let t1 = now () in
    t.stack <- List.tl t.stack;
    if String.equal name "setup" then t.setup_s <- t.setup_s +. (t1 -. t0);
    if t.traced then t.spans <- { id; parent; name; t0; t1 } :: t.spans
  in
  Fun.protect ~finally:finish f

let spans t = List.rev t.spans

(* Sum of the durations of the spans called [name]. *)
let span_s t name =
  List.fold_left
    (fun acc s -> if String.equal s.name name then acc +. (s.t1 -. s.t0) else acc)
    0. t.spans

(* Root spans' durations, and the part of them their direct children cover. *)
let coverage t =
  List.fold_left
    (fun (total, covered) s ->
      if s.parent = -1 then (total +. (s.t1 -. s.t0), covered)
      else if List.exists (fun r -> r.id = s.parent && r.parent = -1) t.spans then
        (total, covered +. (s.t1 -. s.t0))
      else (total, covered))
    (0., 0.) t.spans

(* ---------------------------------------------------------------- *)
(* Wrappers around the program's public seams                       *)
(* ---------------------------------------------------------------- *)

(* A link whose fate draws are counted and timed.  Untraced probes get
   the link back unchanged. *)
let link t (l : Sim.Link.t) =
  if not t.traced then l
  else
    {
      l with
      Sim.Link.fate =
        (fun ~rng ~now:at ~src ~dst ->
          let t0 = now () in
          let f = l.Sim.Link.fate ~rng ~now:at ~src ~dst in
          t.fate_s <- t.fate_s +. (now () -. t0);
          t.fate_calls <- t.fate_calls + 1;
          (match f with Sim.Link.Drop -> t.fate_drops <- t.fate_drops + 1 | Deliver_at _ -> ());
          f);
    }

(* Count trace records and registry updates of a sequential engine.  Both
   hooks decline, so every record and update is applied exactly as
   without them.  A sharded engine owns these seams itself and is left
   alone. *)
let observe_engine t engine =
  if t.traced && Sim.Engine.shard_count engine = 1 then begin
    Sim.Trace.set_sink (Sim.Engine.trace engine)
      (Some
         (fun _ ->
           t.records <- t.records + 1;
           false));
    Obs.Registry.set_hook (Sim.Engine.obs engine)
      (Some
         (fun _ ->
           t.registry_ops <- t.registry_ops + 1;
           false))
  end

let observe_detector t fd =
  if t.traced then Fd.Fd_handle.subscribe fd (fun _ _ -> t.view_changes <- t.view_changes + 1)
