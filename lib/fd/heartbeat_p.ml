type params = {
  period : int;
  initial_timeout : int;
  timeout_increment : int;
}

let default_params = { period = 10; initial_timeout = 30; timeout_increment = 20 }

let component = "fd.heartbeat-p"

type Sim.Payload.t += Alive

type process_state = {
  last_heard : Sim.Sim_time.t array;  (** Per peer: last heartbeat receipt (or 0). *)
  timeout : int array;  (** Per peer: current time-out. *)
}

let install ?(component = component) engine params =
  if params.period <= 0 || params.initial_timeout <= 0 then
    invalid_arg "Heartbeat_p.install: period and initial_timeout must be positive";
  let n = Sim.Engine.n engine in
  let handle = Fd_handle.make engine ~component in
  let m_suspicions =
    Obs.Registry.counter (Sim.Engine.obs engine) ~name:"fd.heartbeat_p.suspicions"
  in
  let m_detection_latency =
    Obs.Registry.histogram (Sim.Engine.obs engine) ~name:"fd.heartbeat_p.detection_latency"
      ~buckets:[ 8; 16; 32; 64; 128; 256; 512; 1024 ]
  in
  let states =
    Array.init n (fun _ ->
        {
          last_heard = Array.make n Sim.Sim_time.zero;
          timeout = Array.make n params.initial_timeout;
        })
  in
  let suspect p q =
    (* The suspicion episode's span (opened here, closed if the suspicion
       turns out premature, open forever when q really crashed) is
       maintained by Fd_handle.set from the view diff. *)
    Obs.Registry.incr m_suspicions;
    Obs.Registry.observe m_detection_latency
      (Sim.Engine.now engine - states.(p).last_heard.(q));
    Fd_handle.update handle p (fun v ->
        { v with Fd_view.suspected = Sim.Pid.Set.add q v.Fd_view.suspected })
  in
  let unsuspect p q =
    Fd_handle.update handle p (fun v ->
        { v with Fd_view.suspected = Sim.Pid.Set.remove q v.Fd_view.suspected })
  in
  let check_timeouts p () =
    let st = states.(p) in
    let now = Sim.Engine.now engine in
    for q = 0 to n - 1 do
      if (not (Sim.Pid.equal q p)) && not (Fd_view.suspects (Fd_handle.query handle p) q) then
        if now - st.last_heard.(q) > st.timeout.(q) then suspect p q
    done
  in
  let on_message p ~src payload =
    match payload with
    | Alive ->
      let st = states.(p) in
      st.last_heard.(src) <- Sim.Engine.now engine;
      if Fd_view.suspects (Fd_handle.query handle p) src then begin
        (* A premature suspicion: rescind it and grow the time-out so the
           mistake is not repeated forever (Chandra–Toueg, Section 4 of [6]). *)
        st.timeout.(src) <- st.timeout.(src) + params.timeout_increment;
        unsuspect p src
      end
    | _ -> ()
  in
  List.iter
    (fun p ->
      Sim.Engine.register engine ~component p (on_message p);
      let send_heartbeat () =
        Sim.Engine.send_to_all_others engine ~component ~tag:"alive" ~src:p Alive
      in
      ignore (Sim.Engine.every engine p ~phase:0 ~period:params.period send_heartbeat
               : unit -> unit);
      ignore (Sim.Engine.every engine p ~period:params.period (check_timeouts p)
               : unit -> unit))
    (Sim.Pid.all ~n);
  handle
