(* Load a JSONL trace export back into Sim.Trace events: each line decodes
   to the exact inverse of Sim.Trace_export.jsonl_event, so re-emitting a
   decoded event reproduces its input line byte for byte.  Fields a
   hand-written line leaves out default to 0 / "" / none. *)

exception Bad_trace of string

let event_of_line ~lineno line : Sim.Trace.event =
  let fail msg = raise (Bad_trace (Printf.sprintf "line %d: %s" lineno msg)) in
  let j = try Json_min.parse line with Json_min.Parse_error m -> fail m in
  let required k =
    match Option.bind (Json_min.member k j) Json_min.to_int with
    | Some v -> v
    | None -> fail (Printf.sprintf "missing %S" k)
  in
  let int k = Json_min.int_field j k ~default:0 in
  let str k = Json_min.string_field j k ~default:"" in
  let pid k =
    let p = int k in
    if p < 0 then fail (Printf.sprintf "negative %S" k) else p
  in
  let seq = required "seq" and at = int "at" in
  let component = str "component" and tag = str "tag" in
  let body : Sim.Trace.body =
    match Option.bind (Json_min.member "type" j) Json_min.to_string with
    | None -> fail "missing \"type\""
    | Some "send" -> Send { at; src = pid "src"; dst = pid "dst"; msg = int "msg"; component; tag }
    | Some "deliver" ->
      Deliver { at; src = pid "src"; dst = pid "dst"; msg = int "msg"; component; tag }
    | Some "drop" ->
      let reason = str "reason" in
      Drop { at; src = pid "src"; dst = pid "dst"; msg = int "msg"; component; tag; reason }
    | Some "crash" -> Crash { at; pid = pid "pid" }
    | Some "fd_view" ->
      let suspected =
        Option.value ~default:[] (Option.bind (Json_min.member "suspected" j) Json_min.to_list)
      in
      Fd_view
        {
          at;
          pid = pid "pid";
          component;
          suspected = Sim.Pid.set_of_list (List.filter_map Json_min.to_int suspected);
          trusted = Option.bind (Json_min.member "trusted" j) Json_min.to_int;
        }
    | Some "propose" -> Propose { at; pid = pid "pid"; value = int "value" }
    | Some "decide" -> Decide { at; pid = pid "pid"; value = int "value"; round = int "round" }
    | Some "note" -> Note { at; pid = pid "pid"; tag; detail = str "detail" }
    | Some "span_begin" ->
      Span_begin { at; pid = pid "pid"; component; span = int "span"; name = str "name" }
    | Some "span_end" ->
      Span_end { at; pid = pid "pid"; component; span = int "span"; name = str "name" }
    | Some t -> fail (Printf.sprintf "unknown event type %S" t)
  in
  { seq; lc = int "lc"; body }

let read_lines path = In_channel.with_open_text path In_channel.input_lines

(* Blank lines are skipped, but errors name the physical line. *)
let of_lines lines =
  List.concat
    (List.mapi
       (fun i line -> if String.trim line = "" then [] else [ event_of_line ~lineno:(i + 1) line ])
       lines)

let load path = of_lines (read_lines path)
