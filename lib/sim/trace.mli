(** Run traces, causally stamped.

    The engine and the protocol components append events to a trace as the
    simulation advances; the {!Spec} library evaluates the paper's
    completeness / accuracy / leader-election / consensus properties over
    the finished trace, and {!Trace_export} turns it into Chrome
    trace-event JSON or JSONL for offline tooling ([ecfd filter],
    [ancestry], [rollup]).

    Every recorded event is stamped with

    - a {b sequence number} [seq]: 0-based, dense, strictly increasing in
      order of occurrence — the event's identity within the run;
    - a {b Lamport clock} [lc], maintained here: each event at a process
      ticks that process's clock; a [Deliver] joins the receiver's clock
      with the matching [Send]'s stamp, so [lc] orders events consistently
      with happens-before (clock condition: [e -> e'] implies
      [lc e < lc e'] for process events).

    [Send]/[Deliver]/[Drop] carry a shared {b message id} [msg] (allocated
    by the engine), linking a delivery or a drop back to its send — the
    edge the ancestry query walks.  [Drop] is stamped with the send's
    clock and ticks nobody: a dropped message is observed by no process.

    [Span_begin]/[Span_end] bracket protocol phases (consensus rounds,
    leadership epochs, suspicion episodes) under an engine-allocated span
    id; see {!Engine.begin_span}. *)

type body =
  | Send of {
      at : Sim_time.t;
      src : Pid.t;
      dst : Pid.t;
      msg : int;
      component : string;
      tag : string;
    }
  | Deliver of {
      at : Sim_time.t;
      src : Pid.t;
      dst : Pid.t;
      msg : int;
      component : string;
      tag : string;
    }
  | Drop of {
      at : Sim_time.t;
      src : Pid.t;
      dst : Pid.t;
      msg : int;
      component : string;
      tag : string;
      reason : string;
    }
  | Crash of { at : Sim_time.t; pid : Pid.t }
  | Fd_view of {
      at : Sim_time.t;
      pid : Pid.t;
      component : string;
      suspected : Pid.Set.t;
      trusted : Pid.t option;
    }  (** A failure-detector module's output changed. *)
  | Propose of { at : Sim_time.t; pid : Pid.t; value : int }
  | Decide of { at : Sim_time.t; pid : Pid.t; value : int; round : int }
  | Note of { at : Sim_time.t; pid : Pid.t; tag : string; detail : string }
  | Span_begin of { at : Sim_time.t; pid : Pid.t; component : string; span : int; name : string }
  | Span_end of { at : Sim_time.t; pid : Pid.t; component : string; span : int; name : string }

type event = { seq : int; lc : int; body : body }

type t

val create : unit -> t
(** An empty trace.  Besides its events, a trace keeps one Lamport clock
    per process and one send stamp per message id it has seen: dense ids
    index an array, about 9 bytes per message over the whole run, which
    is small next to the roughly 115 bytes each event retains. *)

val record : t -> body -> unit
(** Stamp ([seq], [lc]) and append.  The Lamport bookkeeping lives here,
    so hand-built traces (tests) get consistent stamps too.  If a sink is
    installed ({!set_sink}) the body is offered to it first and only
    appended when the sink declines. *)

val set_sink : t -> (body -> bool) option -> unit
(** Install (or clear) a recording sink.  A sink that returns [false]
    declines the body and {!record} appends it directly, so a declining
    sink (e.g. one that only counts records) leaves the trace
    byte-identical to a sink-free one; a sink that returns [true] takes
    the body over and it is not appended. *)

val length : t -> int

(** {1 Reading}

    [iter]/[to_seq] walk the events in order of occurrence without
    copying; [events] materialises a fresh list and is kept for
    call sites that genuinely need one. *)

val iter : t -> (event -> unit) -> unit
val to_seq : t -> event Seq.t

val events : t -> event list
(** In order of occurrence.  Allocates a fresh list on every call —
    prefer {!iter} / {!to_seq} on hot paths. *)

val time_of : body -> Sim_time.t
val pid_of : body -> Pid.t option
(** The process an event happens at: [src] of a [Send], [dst] of a
    [Deliver], [pid] otherwise; [None] for [Drop] (a drop happens on the
    link, at no process). *)

val max_pid : t -> Pid.t
(** The highest [pid_of] over the trace's events; [-1] when none has
    one. *)

val pp_body : Format.formatter -> body -> unit
val pp_event : Format.formatter -> event -> unit
(** [pp_body] prefixed with the [#seq @lc] stamp. *)

val crashes : t -> (Pid.t * Sim_time.t) list
(** All crash events, in order. *)

val decisions : t -> (Pid.t * int * int * Sim_time.t) list
(** [(pid, value, round, time)] for every decide event, in order. *)

val proposals : t -> (Pid.t * int) list

val dump : t -> out_channel -> unit
(** Write the whole trace, one pretty-printed event per line — the format
    of {!pp_event} — for offline inspection or diffing two runs. *)
