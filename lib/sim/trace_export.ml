(* Both exporters append straight into the caller's Buffer: integers
   through a digit writer and strings through one scanning escaper
   (Obs.Json_buf), with no Printf and no per-field string.  The output
   must be byte-deterministic, and the JSON vocabulary is small enough
   that a JSON library would buy nothing.

   Every writer is a top-level function taking [buf]: without flambda a
   local closure costs a few words per event, and a trace has millions
   of events. *)

let add = Buffer.add_string
let add_int = Obs.Json_buf.add_int

(* [key] is a literal such as [",\"at\":"]. *)
let int_field buf key v =
  add buf key;
  add_int buf v

let str_field buf key s =
  add buf key;
  Buffer.add_char buf '"';
  Obs.Json_buf.add_escaped buf s;
  Buffer.add_char buf '"'

(* Set elements are ascending; each is followed by a comma and the last
   comma is taken back.  A fold with [buf] as its accumulator needs no
   closure. *)
let add_member p buf =
  add_int buf p;
  Buffer.add_char buf ',';
  buf

let add_pid_set buf s =
  Buffer.add_char buf '[';
  if not (Pid.Set.is_empty s) then begin
    let buf = Pid.Set.fold add_member s buf in
    Buffer.truncate buf (Buffer.length buf - 1)
  end;
  Buffer.add_char buf ']'

let add_trusted buf = function None -> add buf "null" | Some q -> add_int buf q

(* ------------------------------------------------------------------ *)
(* JSONL                                                              *)
(* ------------------------------------------------------------------ *)

let stamp buf (e : Trace.event) kind =
  int_field buf "{\"seq\":" e.seq;
  int_field buf ",\"lc\":" e.lc;
  add buf ",\"type\":\"";
  add buf kind;
  Buffer.add_char buf '"'

let message buf ~at ~src ~dst ~msg ~component ~tag =
  int_field buf ",\"at\":" at;
  int_field buf ",\"src\":" src;
  int_field buf ",\"dst\":" dst;
  int_field buf ",\"msg\":" msg;
  str_field buf ",\"component\":" component;
  str_field buf ",\"tag\":" tag

let at_pid buf ~at ~pid =
  int_field buf ",\"at\":" at;
  int_field buf ",\"pid\":" pid

let span buf ~at ~pid ~component ~span ~name =
  at_pid buf ~at ~pid;
  str_field buf ",\"component\":" component;
  int_field buf ",\"span\":" span;
  str_field buf ",\"name\":" name

let jsonl_event buf (e : Trace.event) =
  (match e.body with
  | Send { at; src; dst; msg; component; tag } ->
    stamp buf e "send";
    message buf ~at ~src ~dst ~msg ~component ~tag
  | Deliver { at; src; dst; msg; component; tag } ->
    stamp buf e "deliver";
    message buf ~at ~src ~dst ~msg ~component ~tag
  | Drop { at; src; dst; msg; component; tag; reason } ->
    stamp buf e "drop";
    message buf ~at ~src ~dst ~msg ~component ~tag;
    str_field buf ",\"reason\":" reason
  | Crash { at; pid } ->
    stamp buf e "crash";
    at_pid buf ~at ~pid
  | Fd_view { at; pid; component; suspected; trusted } ->
    stamp buf e "fd_view";
    at_pid buf ~at ~pid;
    str_field buf ",\"component\":" component;
    add buf ",\"suspected\":";
    add_pid_set buf suspected;
    add buf ",\"trusted\":";
    add_trusted buf trusted
  | Propose { at; pid; value } ->
    stamp buf e "propose";
    at_pid buf ~at ~pid;
    int_field buf ",\"value\":" value
  | Decide { at; pid; value; round } ->
    stamp buf e "decide";
    at_pid buf ~at ~pid;
    int_field buf ",\"value\":" value;
    int_field buf ",\"round\":" round
  | Note { at; pid; tag; detail } ->
    stamp buf e "note";
    at_pid buf ~at ~pid;
    str_field buf ",\"tag\":" tag;
    str_field buf ",\"detail\":" detail
  | Span_begin { at; pid; component; span = s; name } ->
    stamp buf e "span_begin";
    span buf ~at ~pid ~component ~span:s ~name
  | Span_end { at; pid; component; span = s; name } ->
    stamp buf e "span_end";
    span buf ~at ~pid ~component ~span:s ~name);
  add buf "}\n"

let jsonl buf trace = Trace.iter trace (jsonl_event buf)

let jsonl_string trace =
  let buf = Buffer.create 4096 in
  jsonl buf trace;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON                                            *)
(* ------------------------------------------------------------------ *)

(* One Chrome "process" per sim process (pid = tid = the sim pid), so
   Perfetto shows one track per process.  Spans become B/E duration
   slices; Send/Deliver become thread-scoped instants joined by a flow
   ([s] at the send, [f] with bp:"e" at the delivery) keyed on the
   message id; everything else is an instant.  Drops are parked on the
   sender's track (a drop happens on the link, but Chrome events must
   live on some track, and the sender is where the message last was).

   An event is written in three steps: [head] up to and including the
   comma after "tid", then its own fields ([instant] opens the args of
   an instant, [args] those of the other phases), then [close_args]. *)

let sep buf first = if !first then first := false else add buf ",\n"

(* The name is [prefix] (a literal with nothing to escape, so it goes in
   as is) followed by the escaped [name]. *)
let head buf first ~prefix ~name ~cat ~ph ~ts ~pid =
  sep buf first;
  add buf "{\"name\":\"";
  add buf prefix;
  Obs.Json_buf.add_escaped buf name;
  str_field buf "\",\"cat\":" cat;
  add buf ",\"ph\":\"";
  add buf ph;
  int_field buf "\",\"ts\":" ts;
  int_field buf ",\"pid\":" pid;
  int_field buf ",\"tid\":" pid;
  Buffer.add_char buf ','

let args buf (e : Trace.event) =
  int_field buf "\"args\":{\"seq\":" e.seq;
  int_field buf ",\"lc\":" e.lc

let close_args buf = add buf "}}"

let instant buf first e ~prefix ~name ~cat ~ts ~pid =
  head buf first ~prefix ~name ~cat ~ph:"i" ~ts ~pid;
  add buf "\"s\":\"t\",";
  args buf e

(* The flow event that follows a send ([s]) or a delivery ([f]);
   [id_tail] is the literal after the id. *)
let flow buf first e ~cat ~ph ~ts ~pid ~msg ~id_tail =
  head buf first ~prefix:"" ~name:"msg" ~cat ~ph ~ts ~pid;
  int_field buf "\"id\":" msg;
  add buf id_tail;
  args buf e;
  close_args buf

let chrome_event buf first (e : Trace.event) =
  match e.body with
  | Send { at; src; dst; msg; component; tag } ->
    instant buf first e ~prefix:"send " ~name:tag ~cat:component ~ts:at ~pid:src;
    int_field buf ",\"msg\":" msg;
    int_field buf ",\"dst\":" dst;
    close_args buf;
    flow buf first e ~cat:component ~ph:"s" ~ts:at ~pid:src ~msg ~id_tail:","
  | Deliver { at; src; dst; msg; component; tag } ->
    instant buf first e ~prefix:"deliver " ~name:tag ~cat:component ~ts:at ~pid:dst;
    int_field buf ",\"msg\":" msg;
    int_field buf ",\"src\":" src;
    close_args buf;
    flow buf first e ~cat:component ~ph:"f" ~ts:at ~pid:dst ~msg ~id_tail:",\"bp\":\"e\","
  | Drop { at; src; dst; msg; component; tag; reason } ->
    instant buf first e ~prefix:"drop " ~name:tag ~cat:component ~ts:at ~pid:src;
    int_field buf ",\"msg\":" msg;
    int_field buf ",\"dst\":" dst;
    str_field buf ",\"reason\":" reason;
    close_args buf
  | Crash { at; pid } ->
    instant buf first e ~prefix:"" ~name:"crash" ~cat:"engine" ~ts:at ~pid;
    close_args buf
  | Fd_view { at; pid; component; suspected; trusted } ->
    instant buf first e ~prefix:"" ~name:"fd-view" ~cat:component ~ts:at ~pid;
    add buf ",\"suspected\":";
    add_pid_set buf suspected;
    add buf ",\"trusted\":";
    add_trusted buf trusted;
    close_args buf
  | Propose { at; pid; value } ->
    instant buf first e ~prefix:"" ~name:"propose" ~cat:"consensus" ~ts:at ~pid;
    int_field buf ",\"value\":" value;
    close_args buf
  | Decide { at; pid; value; round } ->
    instant buf first e ~prefix:"" ~name:"decide" ~cat:"consensus" ~ts:at ~pid;
    int_field buf ",\"value\":" value;
    int_field buf ",\"round\":" round;
    close_args buf
  | Note { at; pid; tag; detail } ->
    instant buf first e ~prefix:"note " ~name:tag ~cat:"note" ~ts:at ~pid;
    str_field buf ",\"detail\":" detail;
    close_args buf
  | Span_begin { at; pid; component; span; name } ->
    head buf first ~prefix:"" ~name ~cat:component ~ph:"B" ~ts:at ~pid;
    args buf e;
    int_field buf ",\"span\":" span;
    close_args buf
  | Span_end { at; pid; component; span; name } ->
    head buf first ~prefix:"" ~name ~cat:component ~ph:"E" ~ts:at ~pid;
    args buf e;
    int_field buf ",\"span\":" span;
    close_args buf

let chrome buf trace =
  add buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  let first = ref true in
  (* Process-name metadata rows first, one per process seen in the trace,
     in pid order, so Perfetto labels the tracks. *)
  for p = 0 to Trace.max_pid trace do
    sep buf first;
    int_field buf "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" p;
    int_field buf ",\"tid\":" p;
    int_field buf ",\"args\":{\"name\":\"p" (p + 1);
    add buf "\"}}"
  done;
  Trace.iter trace (chrome_event buf first);
  add buf "\n]}\n"

let chrome_string trace =
  let buf = Buffer.create 8192 in
  chrome buf trace;
  Buffer.contents buf
