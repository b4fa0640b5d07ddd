(** Hierarchical timer wheel: the engine's periodic-timer hot path.

    Orders the timer registry's dense integer cells by
    (deadline, scheduling sequence) with O(1) amortised insert and pop and
    {b no minor-heap allocation} on the steady-state path — no heap node,
    no closure, no boxed event per timer occurrence.  The engine keeps
    {!Event_queue} for aperiodic events (messages, crashes, harness
    callbacks) and merges the two sources by (time, sequence); both draw
    sequence numbers from the queue's single counter, so the merged order
    is exactly the order a single combined queue would have produced
    (HACKING.md, "Engine guarantees").

    Layout: {!levels} levels of {!slots_per_level} power-of-two buckets
    (level [k] spans deltas [[32{^k}, 32{^k+1})]), per-level occupancy
    bitmaps, intrusive singly-linked slot lists threaded through one int
    per cell, and an overflow list for deadlines at least {!span} ticks
    ahead.  Cascading is lazy: the cursor advances only at {!pop}, to the
    cached minimum deadline, re-placing just the slot containing the new
    cursor position at each level.

    The wheel never removes a cell before its deadline: cancellation marks
    the cell in the engine's registry and the cell still pops on time (and
    is reclaimed there), which matches the registry's reclaim-at-pop
    accounting and keeps the slot lists singly linked. *)

type t

val slot_bits : int
val slots_per_level : int  (** 32 *)

val levels : int  (** 6 *)

val span : int
(** [slots_per_level ^ levels] — deadlines at least this far ahead of the
    cursor park in the overflow list until the cursor gets near. *)

val create : unit -> t

val cardinal : t -> int
(** Pending cells (inserted, not yet popped — armed or cancelled alike). *)

val is_empty : t -> bool

val capacity : t -> int
(** Per-cell column capacity (>= the largest cell index ever added). *)

val ensure_capacity : t -> int -> unit
(** Grow the per-cell columns to hold cell indices below the argument.
    Amortised doubling; {!add} also grows on demand. *)

val shrink_capacity : t -> int -> unit
(** Drop the per-cell columns down to the argument.  The caller guarantees
    no cell at or above it is pending ({!Engine.compact} shrinks to the
    registry's live high-water, and pending cells are never [Free]). *)

val add : t -> cell:int -> deadline:Sim_time.t -> seq:int -> unit
(** Insert [cell] to pop at [deadline], ordered among equal deadlines by
    [seq] (which must come from the engine-global
    {!Event_queue.alloc_seq} counter and therefore be fresh and monotone).
    A cell must not be re-added before it pops.  Raises
    [Invalid_argument] if [deadline] is behind an already-popped one. *)

val next_at : t -> Sim_time.t
(** Earliest pending deadline (exact, O(1) — maintained cache).  Raises
    [Invalid_argument] when empty; guard with {!is_empty}. *)

val next_seq : t -> int
(** Sequence number of the earliest pending cell — the merge tie-break
    key.  Raises [Invalid_argument] when empty. *)

val pop : t -> int
(** Remove and return the cell with the least (deadline, seq).  Raises
    [Invalid_argument] when empty. *)

