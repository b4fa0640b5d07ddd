(** Int-valued tables keyed by dense ids.

    Message ids and pids are handed out densely from 0, so a table keyed
    by them is an array.  Keys in [\[0, capacity)] live in a growable int
    column with a presence byte each: {!set}, {!mem}, {!find} and
    {!remove} on them allocate nothing and hash nothing.  The column
    doubles when a key lands within one doubling of its end, which ids
    allocated in order always do.  Any other key (negative, or far past
    the end, as a hand-built test trace may use) lives in a [Hashtbl], so
    the table accepts every [int] key and behaves like
    [(int, int) Hashtbl.t] with [replace]. *)

type t

val create : unit -> t

val set : t -> int -> int -> unit
(** Bind the key, replacing any previous binding. *)

val mem : t -> int -> bool

val find : t -> int -> default:int -> int
(** The key's binding, or [default] if it has none. *)

val remove : t -> int -> unit
(** Unbind the key; a no-op if it has no binding. *)
