(* Blocking/ordering primitives outside the sanctioned boundary
   (lib/exec/): a Mutex anywhere else can deadlock against the pool or
   introduce scheduling-dependent ordering. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
