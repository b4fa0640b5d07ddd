(* Invariant: a key lives in exactly one place, decided by the current
   capacity — the columns if it is in [0, capacity), [spill] otherwise.
   Growing the columns therefore moves the spilled keys they now cover. *)
type t = {
  mutable values : int array;
  mutable present : Bytes.t;  (* '\001' where [values] holds a binding *)
  spill : (int, int) Hashtbl.t;
}

let min_capacity = 64

let create () = { values = [||]; present = Bytes.empty; spill = Hashtbl.create 8 }

let in_columns t key = key >= 0 && key < Array.length t.values

let grow t =
  let capacity = Array.length t.values in
  let capacity' = Stdlib.max min_capacity (2 * capacity) in
  let values = Array.make capacity' 0 in
  let present = Bytes.make capacity' '\000' in
  Array.blit t.values 0 values 0 capacity;
  Bytes.blit t.present 0 present 0 capacity;
  t.values <- values;
  t.present <- present;
  if Hashtbl.length t.spill > 0 then
    Hashtbl.filter_map_inplace
      (fun key v ->
        if in_columns t key then begin
          values.(key) <- v;
          Bytes.set present key '\001';
          None
        end
        else Some v)
      t.spill

let set t key v =
  if key >= Array.length t.values && key < Stdlib.max min_capacity (2 * Array.length t.values)
  then grow t;
  if in_columns t key then begin
    t.values.(key) <- v;
    Bytes.set t.present key '\001'
  end
  else Hashtbl.replace t.spill key v

let mem t key =
  if in_columns t key then Bytes.get t.present key <> '\000' else Hashtbl.mem t.spill key

let find t key ~default =
  if in_columns t key then if Bytes.get t.present key <> '\000' then t.values.(key) else default
  else match Hashtbl.find_opt t.spill key with Some v -> v | None -> default

let remove t key =
  if in_columns t key then Bytes.set t.present key '\000' else Hashtbl.remove t.spill key
