(* A minimal JSON reader.  The repo deliberately has no JSON dependency
   (exports are printed by hand in lib/sim), so the reading side parses by
   hand too: trace exports, bench JSON, bench/alloc_budget.json.  Full
   JSON grammar, ints kept exact. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

type cursor = { text : string; mutable pos : int }

let error cur msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.text then Some cur.text.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let continue = ref true in
  while !continue do
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') -> advance cur
    | _ -> continue := false
  done

let expect cur c =
  match peek cur with
  | Some c' when c' = c -> advance cur
  | _ -> error cur (Printf.sprintf "expected '%c'" c)

let literal cur word value =
  let len = String.length word in
  if
    cur.pos + len <= String.length cur.text
    && String.sub cur.text cur.pos len = word
  then begin
    cur.pos <- cur.pos + len;
    value
  end
  else error cur (Printf.sprintf "expected '%s'" word)

let parse_hex4 cur =
  if cur.pos + 4 > String.length cur.text then error cur "truncated \\u escape";
  let v = int_of_string ("0x" ^ String.sub cur.text cur.pos 4) in
  cur.pos <- cur.pos + 4;
  v

let utf8_of_code buf code =
  (* Good enough for escapes: encode the scalar value as UTF-8. *)
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek cur with
    | None -> error cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' ->
      advance cur;
      (match peek cur with
      | Some '"' -> Buffer.add_char buf '"'; advance cur
      | Some '\\' -> Buffer.add_char buf '\\'; advance cur
      | Some '/' -> Buffer.add_char buf '/'; advance cur
      | Some 'n' -> Buffer.add_char buf '\n'; advance cur
      | Some 't' -> Buffer.add_char buf '\t'; advance cur
      | Some 'r' -> Buffer.add_char buf '\r'; advance cur
      | Some 'b' -> Buffer.add_char buf '\b'; advance cur
      | Some 'f' -> Buffer.add_char buf '\012'; advance cur
      | Some 'u' ->
        advance cur;
        utf8_of_code buf (parse_hex4 cur)
      | _ -> error cur "bad escape");
      loop ()
    | Some c ->
      Buffer.add_char buf c;
      advance cur;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let is_float = ref false in
  let continue = ref true in
  while !continue do
    match peek cur with
    | Some ('0' .. '9' | '-' | '+') -> advance cur
    | Some ('.' | 'e' | 'E') ->
      is_float := true;
      advance cur
    | _ -> continue := false
  done;
  let s = String.sub cur.text start (cur.pos - start) in
  if !is_float then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> error cur "bad number"
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> error cur "bad number"

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> error cur "unexpected end of input"
  | Some '"' -> String (parse_string cur)
  | Some '{' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some '}' then begin
      advance cur;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws cur;
        let key = parse_string cur in
        skip_ws cur;
        expect cur ':';
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          members ((key, v) :: acc)
        | Some '}' ->
          advance cur;
          List.rev ((key, v) :: acc)
        | _ -> error cur "expected ',' or '}'"
      in
      Obj (members [])
    end
  | Some '[' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some ']' then begin
      advance cur;
      List []
    end
    else begin
      let rec elements acc =
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          elements (v :: acc)
        | Some ']' ->
          advance cur;
          List.rev (v :: acc)
        | _ -> error cur "expected ',' or ']'"
      in
      List (elements [])
    end
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some 'n' -> literal cur "null" Null
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> error cur (Printf.sprintf "unexpected '%c'" c)

let parse text =
  let cur = { text; pos = 0 } in
  let v = parse_value cur in
  skip_ws cur;
  if cur.pos <> String.length text then error cur "trailing garbage";
  v

(* --- accessors --- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_int = function Int i -> Some i | _ -> None
let to_float = function Int i -> Some (float_of_int i) | Float f -> Some f | _ -> None
let to_string = function String s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None

let int_field j key ~default = Option.value ~default (Option.bind (member key j) to_int)
let string_field j key ~default = Option.value ~default (Option.bind (member key j) to_string)

let type_name = function
  | Null -> "null"
  | Bool _ -> "boolean"
  | Int _ -> "integer"
  | Float _ -> "number"
  | String _ -> "string"
  | List _ -> "array"
  | Obj _ -> "object"
