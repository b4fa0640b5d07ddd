(** Timestamped event queue.

    A thin layer over {!Heap} that orders entries by (time, insertion
    sequence): events scheduled for the same instant fire in the order they
    were scheduled, which makes runs deterministic.

    The sequence counter is the engine-global scheduling order.  Timer
    events no longer live in this queue (they live in {!Timer_wheel}), but
    they draw their sequence numbers from the same counter via
    {!alloc_seq}, so "fire in the order they were scheduled" keeps holding
    across both event sources when the engine merges them by
    (time, sequence). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val alloc_seq : 'a t -> int
(** Hand out the next scheduling sequence number.  [schedule] consumes one
    per call; the engine consumes one per timer arm so that wheel and queue
    share a single total scheduling order. *)

val schedule : 'a t -> at:Sim_time.t -> 'a -> unit
(** Enqueue an event to fire at [at].  [at] may equal the current pop
    frontier (same-instant follow-up events are allowed) but scheduling in
    the past of an already-popped instant is the caller's bug; the queue
    itself does not check monotonicity.  Consumes one {!alloc_seq} ticket. *)

val next_time : 'a t -> Sim_time.t option
(** Timestamp of the earliest pending event. *)

val next_at : 'a t -> Sim_time.t
(** [next_time] without the [option] box (allocation-free peek for the
    engine's merge loop).  Raises [Invalid_argument] when empty — guard
    with {!is_empty}. *)

val next_seq : 'a t -> int
(** Sequence number of the earliest pending event (the engine's wheel/heap
    tie-break key).  Raises [Invalid_argument] when empty. *)

val pop : 'a t -> (Sim_time.t * 'a) option
(** Remove and return the earliest pending event. *)

val pop_exn : 'a t -> 'a
(** Remove and return the earliest pending event's payload without boxing
    the result (the caller has already read {!next_at}).  Raises
    [Invalid_argument] when empty. *)

val shrink : 'a t -> unit
(** Release backing-store slack left behind by a scheduling burst; never
    drops events.  Useful on long-lived engines between load phases. *)

val clear : 'a t -> unit
