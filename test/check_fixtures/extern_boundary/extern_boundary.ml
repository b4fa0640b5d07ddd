(* An [@check.allow extern] the zero-allocation walk stops at: the call
   is a trusted boundary, so there is no Z4 finding for the waiver to
   cover — and it is still not stale, because the walk honoured it. *)
let[@alloc.zero] root cb =
  (cb 0 [@check.allow extern "fixture: the callback's allocation belongs to its owner"])
