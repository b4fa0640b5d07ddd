(* An interface, as every lib/ module has (rule R5). *)
val next : unit -> int
val dispatch : (unit -> 'a) -> 'a
