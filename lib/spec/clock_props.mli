(** Causal-stamp sanity over a run's trace.

    {!Sim.Trace.record} maintains the [seq]/[lc] stamps; this module checks
    the guarantees those stamps are supposed to give downstream tooling
    (the [ecfd ancestry] query, the exporters):

    - {b sequence density}: [seq] is [0, 1, 2, ...] in order of occurrence;
    - {b per-process monotonicity}: the Lamport clocks of the events at any
      one process strictly increase ([Span]s, [Fd_view]s, etc. included);
    - {b clock condition across links}: every [Deliver] carries a clock
      strictly greater than its matching [Send]'s, and has a matching
      [Send] (same message id) earlier in the trace. *)

type violation =
  | Nonmonotone_seq of { seq : int; prev : int }
  | Clock_regression of { pid : Sim.Pid.t; seq : int; lc : int; prev_lc : int }
  | Causality_violation of { msg : int; send_lc : int; deliver_lc : int }
      (** clock(Send) >= clock(Deliver) for a matched message. *)
  | Unmatched_deliver of { msg : int; seq : int }
      (** A delivery whose message id was never sent before it. *)

val pp_violation : Format.formatter -> violation -> unit

val check : Sim.Trace.t -> violation list
(** Empty = the trace's stamps are causally consistent.  Violations come
    out in trace order. *)

val check_events : Sim.Trace.event list -> violation list
(** Same checks over a hand-built event list (tests). *)
