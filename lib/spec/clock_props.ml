type violation =
  | Nonmonotone_seq of { seq : int; prev : int }
  | Clock_regression of { pid : Sim.Pid.t; seq : int; lc : int; prev_lc : int }
  | Causality_violation of { msg : int; send_lc : int; deliver_lc : int }
  | Unmatched_deliver of { msg : int; seq : int }

let pp_violation ppf = function
  | Nonmonotone_seq { seq; prev } ->
    Format.fprintf ppf "seq %d follows seq %d (not dense/increasing)" seq prev
  | Clock_regression { pid; seq; lc; prev_lc } ->
    Format.fprintf ppf "clock at %a regressed: #%d has @%d after @%d" Sim.Pid.pp pid seq lc
      prev_lc
  | Causality_violation { msg; send_lc; deliver_lc } ->
    Format.fprintf ppf "msg %d: send @%d not before deliver @%d" msg send_lc deliver_lc
  | Unmatched_deliver { msg; seq } ->
    Format.fprintf ppf "deliver #%d references msg %d with no prior send" seq msg

(* Pids and engine message ids are dense, so both maps are
   {!Sim.Id_table}s: one array slot per process and per message, no
   hashing and no allocation per event. *)
type state = {
  mutable prev_seq : int;
  last_lc : Sim.Id_table.t;  (** Pid -> the Lamport stamp of its latest event. *)
  send_lc : Sim.Id_table.t;  (** Message id -> the send's Lamport stamp. *)
  mutable rev_violations : violation list;
}

let flag st v = st.rev_violations <- v :: st.rev_violations

let at_pid st (e : Sim.Trace.event) pid =
  if Sim.Id_table.mem st.last_lc pid then begin
    let prev_lc = Sim.Id_table.find st.last_lc pid ~default:0 in
    if e.lc <= prev_lc then flag st (Clock_regression { pid; seq = e.seq; lc = e.lc; prev_lc })
  end;
  Sim.Id_table.set st.last_lc pid e.lc

let scan st (e : Sim.Trace.event) =
  if e.seq <> st.prev_seq + 1 then flag st (Nonmonotone_seq { seq = e.seq; prev = st.prev_seq });
  st.prev_seq <- e.seq;
  match e.body with
  | Sim.Trace.Send { src; msg; _ } ->
    at_pid st e src;
    Sim.Id_table.set st.send_lc msg e.lc
  | Sim.Trace.Deliver { dst; msg; _ } ->
    at_pid st e dst;
    if Sim.Id_table.mem st.send_lc msg then begin
      let send_lc = Sim.Id_table.find st.send_lc msg ~default:0 in
      if send_lc >= e.lc then flag st (Causality_violation { msg; send_lc; deliver_lc = e.lc })
    end
    else flag st (Unmatched_deliver { msg; seq = e.seq })
  | Sim.Trace.Drop _ -> ()
  | Sim.Trace.Crash { pid; _ }
  | Sim.Trace.Fd_view { pid; _ }
  | Sim.Trace.Propose { pid; _ }
  | Sim.Trace.Decide { pid; _ }
  | Sim.Trace.Note { pid; _ }
  | Sim.Trace.Span_begin { pid; _ }
  | Sim.Trace.Span_end { pid; _ } -> at_pid st e pid

let fresh () =
  {
    prev_seq = -1;
    last_lc = Sim.Id_table.create ();
    send_lc = Sim.Id_table.create ();
    rev_violations = [];
  }

let check trace =
  let st = fresh () in
  Sim.Trace.iter trace (scan st);
  List.rev st.rev_violations

let check_events events =
  let st = fresh () in
  List.iter (scan st) events;
  List.rev st.rev_violations
