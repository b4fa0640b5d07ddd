(* Splitmix64 (Steele, Lea & Flood, OOPSLA 2014): a tiny, high-quality,
   splittable generator.  Chosen over [Stdlib.Random] so runs are stable
   across OCaml versions.

   The 64-bit state lives unboxed in an 8-byte buffer, read and written
   with the unchecked native-endian primitives: a mutable [int64] record
   field would box a fresh state on every draw.  [advance] and [mix] are
   inlined into every draw, so the arithmetic stays in registers and only
   [next_int64]'s own result is boxed. *)

type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state state =
  let t = Bytes.create 8 in
  set_state t 0 state;
  t

let create ~seed = of_state (mix (Int64.of_int seed))

let[@inline] advance t =
  let state = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 state;
  mix state

let next_int64 t = advance t
let split t = of_state (advance t)
let copy t = Bytes.copy t

(* Keep 62 bits so the value fits OCaml's 63-bit int non-negatively, then
   rejection-sample: [raw mod bound] alone over-weights the small residues
   whenever [bound] does not divide 2^62.  A draw is rejected exactly when
   it falls in the incomplete top bucket [floor(2^62/bound)*bound, 2^62);
   the wrap-around test below detects that without materialising 2^62
   (which exceeds [max_int]).  Expected draws per call < 2, and for the
   small bounds the simulator uses, rejection is vanishingly rare.  Top
   level, not a local closure, so a draw allocates nothing. *)
let rec draw_below t bound =
  let raw = Int64.to_int (Int64.shift_right_logical (advance t) 2) in
  let r = raw mod bound in
  if raw - r + (bound - 1) < 0 then draw_below t bound else r

let int t ~bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  draw_below t bound

let int_in_range t ~lo ~hi =
  assert (lo <= hi);
  lo + int t ~bound:(hi - lo + 1)

let[@inline] float t =
  let raw = Int64.to_float (Int64.shift_right_logical (advance t) 11) in
  raw /. 9007199254740992.0 (* 2^53 *)

let bool t ~p = float t < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t xs =
  match xs with
  | [] -> invalid_arg "Rng.choose: empty list"
  | _ -> List.nth xs (int t ~bound:(List.length xs))
