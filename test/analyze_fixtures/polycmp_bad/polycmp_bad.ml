(* A3 fixture (the shapes the retired R3 pinned down): the four [bad_*]
   bindings must each produce one [A3] finding; the [good_*] none. *)

type vote =
  | Yes
  | No

let bad_sort xs = List.sort compare xs
let bad_value v = v = Consensus.Value.null
let bad_time t = t <> Sim.Sim_time.zero
let bad_vote v = v = Yes
let good_sort xs = List.sort Int.compare xs
let good_vote = function Yes -> true | No -> false
let good_int a b = a = b + 1
