(* A decoy: a file named shard.ml outside lib/exec/ gets no exemption from
   its name, so the Domain access is a D4 finding. *)
let whoami () = Domain.self ()
