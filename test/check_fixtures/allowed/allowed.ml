(* Suppression fixture: one violation per rule family, each silenced by
   [@check.allow <key> "reason"] on the node that carries it — a floating
   whole-file attribute, an expression, an extension constructor, and
   three keys stacked on one expression.  No finding survives; every
   waived one is recorded as suppressed. *)

[@@@check.allow polycmp "fixture: whole-file allowance for the sort below"]

let wall () = (Sys.time [@check.allow ambient "fixture: measuring the host"]) ()

let unordered table =
  (Hashtbl.fold
     (fun k _ acc -> k :: acc)
     table [] [@check.allow unordered "fixture: consumer is order-insensitive"])

let cmp xs = List.sort compare xs

type Sim.Payload.t +=
  | Reserved [@check.allow payload "fixture: a kind reserved for a later protocol"]

let[@alloc.zero] root x =
  if x > 0 then (Some x [@check.allow boxed "fixture: documented waiver"]) else None

let total = ref 0

let tally xs =
  Exec.Pool.run
    (List.map
       (fun x () ->
         (total := !total + x)
         [@check.allow escape "fixture: the harness runs this pool at one domain"]
         [@check.allow publish "fixture: same single-domain contract covers the read"]
         [@check.allow pure "fixture: same single-domain contract covers the write"];
         x)
       xs)
