(* The sanctioned multicore boundary, in one place.

   Only lib/exec/ — the deterministic job pool, whose whole point is to
   confine parallelism where it cannot reach simulated state — may touch
   blocking/ordering primitives (Domain, Atomic, Mutex, Condition,
   Semaphore) directly.

   This is the typed successor of lint R1's per-file multicore exemption
   list (R1 now checks only ambient nondeterminism): the exemption is a
   property of the checked boundary, not of the syntax, so it lives with
   the domain-safety rules.  Matching is by path component, so a decoy
   file elsewhere in the tree (say, a shard.ml) gets no exemption. *)

let normalized path = String.concat "/" (String.split_on_char '\\' path)

let in_exec path =
  let rec scan = function
    | "lib" :: "exec" :: _ -> true
    | _ :: rest -> scan rest
    | [] -> false
  in
  scan (String.split_on_char '/' (normalized path))

let sanctioned = in_exec
