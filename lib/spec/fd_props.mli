(** Failure-detector property checkers (the Fig. 1 taxonomy, plus Ω's
    Property 1 and ◇C's coherence clause), evaluated over a finished run's
    trace.

    Correct processes are those that never crash in the trace.  Every
    property has the shape "there is a time after which X holds forever";
    on a finite run it holds if X holds from some instant through the end
    of the trace (DESIGN.md §4), and the checker reports the earliest such
    instant — its stabilization — so experiments can also compare
    {i convergence times} (e.g. the ring's detection latency, experiment
    E3).  An X that held throughout is dated from the observer's first
    recorded view, not from 0.

    [make_run] streams the trace once into an {!Obs.Qos} fold, the one
    that also computes the QoS rollups; every checker below is a reading
    of that fold, with no further trace scan. *)

type report = {
  holds : bool;
  since : Sim.Sim_time.t option;  (** Stabilization instant, when it holds. *)
}

type run = {
  trace : Sim.Trace.t;
  component : string;  (** The detector's component name. *)
  n : int;
  qos : Obs.Qos.t;  (** [component]'s views and every crash, folded once. *)
}

val make_run : component:string -> n:int -> Sim.Trace.t -> run
(** Fold the whole trace once ([n >= 1]).  Events recorded into the
    trace afterwards are not seen by the checkers. *)

val correct_processes : run -> Sim.Pid.t list
val crashed_processes : run -> Sim.Pid.t list

val strong_completeness : run -> report
val weak_completeness : run -> report
val eventual_strong_accuracy : run -> report
val eventual_weak_accuracy : run -> report

val leadership : run -> report
(** Ω's Property 1: eventually every correct process permanently trusts the
    same correct process. *)

val trusted_not_suspected : run -> report
(** Definition 1's third clause. *)

val check : Fd.Classes.property -> run -> report

val satisfies_class : Fd.Classes.t -> run -> bool
(** All the class's defining properties hold on the run. *)

val class_matrix : run -> (Fd.Classes.property * report) list
(** Every property with its report — one row of the E1 matrix. *)

val eventual_leader : run -> Sim.Pid.t option
(** The common leader once {!leadership} holds. *)

val detection_time : run -> victim:Sim.Pid.t -> Sim.Sim_time.t option
(** Instant from which {b every} correct process permanently suspects
    [victim] (crash-detection latency numerator for E3). *)

val leader_changes : run -> Sim.Pid.t -> int
(** How many times the process's trusted output switched to a different
    process over the run — the instability that {i stable} leader election
    [2] minimises (experiment E11). *)

val leader_changes_after : run -> Sim.Pid.t -> after:Sim.Sim_time.t -> int
(** Trusted-output switches strictly after the given instant — non-zero
    deep into a run means leadership never settled (robust against the
    finite-trace "eventually" being fooled by a quiet final stretch). *)

val false_suspicion_events_after : run -> after:Sim.Sim_time.t -> int
(** Fresh suspicions of correct processes by correct processes strictly
    after the given instant, summed over all observers.  Non-zero deep into
    a run means eventual strong accuracy never settled (robust against a
    horizon that happens to land in a calm stretch). *)

val demotions_of_live_leaders : run -> Sim.Pid.t -> int
(** Among those changes, how many demoted a process that had {b not}
    crashed by the time of the change.  A stable Ω keeps this near zero
    once the system calms down. *)
