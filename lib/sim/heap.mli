(** Imperative binary min-heap, the backing store of the event queue.

    Elements are ordered by a user-supplied comparison.  The event queue
    pairs each element with a monotonically increasing sequence number to
    make ties deterministic (FIFO among equal keys), so the heap itself only
    needs a strict weak order.

    Resource accounting: [pop] releases its reference to the popped element
    immediately (the vacated slot is reset, not left aliasing a live or
    popped value), [clear] returns to a small fixed capacity, and [shrink]
    gives back the slack a burst of pushes left behind.  A drained heap
    therefore retains no element references — checkable via
    {!live_slots}. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val capacity : 'a t -> int
(** Allocated slots (>= [length]). *)

val live_slots : 'a t -> int
(** Slots currently holding an element reference; equals [length] unless
    there is a retention bug.  O(1) — an occupancy counter maintained by
    [push]/[pop]/[clear]/[shrink], so production accounting (the engine's
    queue high-water, soak assertions) can query it on the hot path. *)

val scan_live_slots : 'a t -> int
(** The same figure recounted by a full O(capacity) array scan.  Debug
    check: tests compare it against {!live_slots} to prove the counter and
    the array never drift (a popped slot left aliasing its element would
    show up here first). *)

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element, without removing it. *)

val top_exn : 'a t -> 'a
(** Smallest element without the [option] box: the engine's hot loop peeks
    on every step, and wrapping the result would allocate per event.
    Raises [Invalid_argument] on an empty heap — guard with {!is_empty}. *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element.  The vacated slot no longer
    references the element, so the GC can reclaim it once the caller is
    done. *)

val pop_exn : 'a t -> 'a
(** [pop] without the [option] box; allocation-free (the sift is hole-based
    — one slot write per level, no [ref], no swap).  Raises
    [Invalid_argument] on an empty heap — guard with {!is_empty}. *)

val shrink : 'a t -> unit
(** Reduce capacity to [max 8 (length t)], releasing burst slack.  Never
    drops elements. *)

val clear : 'a t -> unit
(** Empty the heap and return to a small fixed capacity (the same capacity
    a fresh heap grows to on first push, keeping [clear]+[push] consistent
    with the growth policy rather than re-starting from an aliased [[||]]). *)

val to_list_unordered : 'a t -> 'a list
(** All elements in unspecified order (inspection/testing). *)
