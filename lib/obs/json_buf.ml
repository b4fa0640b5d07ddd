(* Everything here is a top-level function taking [buf]: without
   flambda a local closure would cost a few words per call, and the
   exporters call these once per field of every event. *)

(* Digits of [-n] for [n <= 0], most significant first.  Working on the
   non-positive side means [min_int] needs no special case. *)
let rec add_neg_digits buf n =
  if n <= -10 then add_neg_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (n mod 10)))

let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_neg_digits buf n
  end
  else add_neg_digits buf (-n)

let hex = "0123456789abcdef"

let add_escaped_char buf c =
  match c with
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\t' -> Buffer.add_string buf "\\t"
  | '\r' -> Buffer.add_string buf "\\r"
  | c when Char.code c < 0x20 ->
    Buffer.add_string buf "\\u00";
    Buffer.add_char buf hex.[Char.code c lsr 4];
    Buffer.add_char buf hex.[Char.code c land 0xf]
  | c -> Buffer.add_char buf c

(* Does [s] from [i] on need no escaping? *)
let rec plain s i =
  i >= String.length s
  ||
  let c = String.unsafe_get s i in
  Char.code c >= 0x20 && c <> '"' && c <> '\\' && plain s (i + 1)

let add_escaped buf s =
  if plain s 0 then Buffer.add_string buf s
  else
    for i = 0 to String.length s - 1 do
      add_escaped_char buf (String.unsafe_get s i)
    done
