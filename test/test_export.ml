(* Differential test of the trace exporters: on generated traces, the
   live [Sim.Trace_export] must write the same bytes as the Printf-based
   implementation it replaced (trace_export_ref.ml).  The generator
   leans on what a hand-written JSON writer gets wrong: every byte value
   in strings (quote, backslash, the named and unnamed control bytes,
   bytes from 0x80 up), integers at the edges of their range, suspect
   sets of every shape. *)

open QCheck2.Gen

(* A generated case: bodies recorded into a trace (pids small, as
   [Trace.record] indexes its clocks by pid), each with the insertion
   order of its suspect set, plus free-standing events for
   [jsonl_event] whose every integer, stamps and pids included, is
   unconstrained. *)
type case = { recorded : (Sim.Trace.body * int list) list; free : Sim.Trace.event list }

let trap_byte =
  oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\000'; '\b'; '\012'; '\031'; '\127'; '\128'; '\255' ]

let byte = frequency [ (1, trap_byte); (3, map Char.chr (int_range 0 255)) ]

let str =
  frequency
    [
      (1, return "");
      (1, oneofl [ "fd.heartbeat-p"; "heartbeat"; "consensus.ec" ]);
      (4, string_size ~gen:byte (int_range 1 10));
    ]

let edge_int =
  frequency
    [
      (2, oneofl [ 0; 1; -1; 9; 10; -10; min_int; max_int; min_int + 1; max_int - 1 ]);
      (2, int_range (-1000) 1000);
      (1, int);
    ]

(* Suspects in the order they are added to the set. *)
let suspects =
  frequency
    [
      (1, return []);
      (1, map (fun p -> [ p ]) edge_int);
      (2, list_size (int_range 2 6) edge_int);
    ]

let body ~pid : (Sim.Trace.body * int list) t =
  let plain g = map (fun b -> (b, [])) g in
  let message = tup6 edge_int pid pid edge_int str str in
  oneof
    [
      plain
        (let+ at, src, dst, msg, component, tag = message in
         Sim.Trace.Send { at; src; dst; msg; component; tag });
      plain
        (let+ at, src, dst, msg, component, tag = message in
         Sim.Trace.Deliver { at; src; dst; msg; component; tag });
      plain
        (let+ at, src, dst, msg, component, tag = message and+ reason = str in
         Sim.Trace.Drop { at; src; dst; msg; component; tag; reason });
      plain
        (let+ at = edge_int and+ pid = pid in
         Sim.Trace.Crash { at; pid });
      (let+ at = edge_int
       and+ pid = pid
       and+ component = str
       and+ inserted = suspects
       and+ trusted = option ~ratio:0.5 edge_int in
       ( Sim.Trace.Fd_view { at; pid; component; suspected = Sim.Pid.set_of_list inserted; trusted },
         inserted ));
      plain
        (let+ at = edge_int and+ pid = pid and+ value = edge_int in
         Sim.Trace.Propose { at; pid; value });
      plain
        (let+ at = edge_int and+ pid = pid and+ value = edge_int and+ round = edge_int in
         Sim.Trace.Decide { at; pid; value; round });
      plain
        (let+ at = edge_int and+ pid = pid and+ tag = str and+ detail = str in
         Sim.Trace.Note { at; pid; tag; detail });
      plain
        (let+ at = edge_int and+ pid = pid and+ component = str and+ span = edge_int
         and+ name = str in
         Sim.Trace.Span_begin { at; pid; component; span; name });
      plain
        (let+ at = edge_int and+ pid = pid and+ component = str and+ span = edge_int
         and+ name = str in
         Sim.Trace.Span_end { at; pid; component; span; name });
    ]

let free_event =
  let+ seq = edge_int and+ lc = edge_int and+ body, _ = body ~pid:edge_int in
  { Sim.Trace.seq; lc; body }

let case =
  let+ recorded = list_size (int_range 0 40) (body ~pid:(int_range 0 7))
  and+ free = list_size (int_range 0 10) free_event in
  { recorded; free }

let trace_of c =
  let t = Sim.Trace.create () in
  List.iter (fun (b, _) -> Sim.Trace.record t b) c.recorded;
  t

let event_line jsonl_event e =
  let buf = Buffer.create 128 in
  jsonl_event buf e;
  Buffer.contents buf

(* Every export of the case by [jsonl_string], [chrome_string] and
   [jsonl_event], in one string per exporter. *)
let render ~jsonl_string ~chrome_string ~jsonl_event c =
  let t = trace_of c in
  [
    ("jsonl_string", jsonl_string t);
    ("chrome_string", chrome_string t);
    ("jsonl_event", String.concat "" (List.map (event_line jsonl_event) c.free));
  ]

let live =
  render ~jsonl_string:Sim.Trace_export.jsonl_string
    ~chrome_string:Sim.Trace_export.chrome_string ~jsonl_event:Sim.Trace_export.jsonl_event

let reference =
  render ~jsonl_string:Trace_export_ref.jsonl_string ~chrome_string:Trace_export_ref.chrome_string
    ~jsonl_event:Trace_export_ref.jsonl_event

let print c = String.concat "\n" (List.map (fun (name, out) -> name ^ ":\n" ^ out) (reference c))

let differential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~print
       ~name:"every exporter writes the reference's bytes on generated traces" case (fun c ->
         List.for_all2
           (fun (_, a) (_, b) -> String.equal a b)
           (live c) (reference c)))

(* ------------------------------------------------------------------ *)
(* The generator reaches every trap                                   *)
(* ------------------------------------------------------------------ *)

let strings_of (b : Sim.Trace.body) =
  match b with
  | Send { component; tag; _ } | Deliver { component; tag; _ } -> [ component; tag ]
  | Drop { component; tag; reason; _ } -> [ component; tag; reason ]
  | Fd_view { component; _ } -> [ component ]
  | Note { tag; detail; _ } -> [ tag; detail ]
  | Span_begin { component; name; _ } | Span_end { component; name; _ } -> [ component; name ]
  | Crash _ | Propose _ | Decide _ -> []

let ints_of (b : Sim.Trace.body) =
  match b with
  | Send { at; src; dst; msg; _ } | Deliver { at; src; dst; msg; _ } | Drop { at; src; dst; msg; _ }
    ->
    [ at; src; dst; msg ]
  | Crash { at; pid } -> [ at; pid ]
  | Fd_view { at; pid; suspected; trusted; _ } ->
    (at :: pid :: Sim.Pid.Set.elements suspected) @ Option.to_list trusted
  | Propose { at; pid; value } -> [ at; pid; value ]
  | Decide { at; pid; value; round } -> [ at; pid; value; round ]
  | Note { at; pid; _ } -> [ at; pid ]
  | Span_begin { at; pid; span; _ } | Span_end { at; pid; span; _ } -> [ at; pid; span ]

let kind_of (b : Sim.Trace.body) =
  match b with
  | Send _ -> "send"
  | Deliver _ -> "deliver"
  | Drop _ -> "drop"
  | Crash _ -> "crash"
  | Fd_view _ -> "fd_view"
  | Propose _ -> "propose"
  | Decide _ -> "decide"
  | Note _ -> "note"
  | Span_begin _ -> "span_begin"
  | Span_end _ -> "span_end"

let bodies c = List.map fst c.recorded @ List.map (fun (e : Sim.Trace.event) -> e.body) c.free

let has_byte p c =
  List.exists (fun b -> List.exists (String.exists p) (strings_of b)) (bodies c)

let has_int p c =
  List.exists (fun (e : Sim.Trace.event) -> p e.seq || p e.lc) c.free
  || List.exists (fun b -> List.exists p (ints_of b)) (bodies c)

let has_view p c =
  List.exists
    (fun (b : Sim.Trace.body) -> match b with Fd_view v -> p v.suspected v.trusted | _ -> false)
    (bodies c)

let rec ascending = function a :: (b :: _ as rest) -> a < b && ascending rest | _ -> true

let traps =
  [
    ("quote", has_byte (Char.equal '"'));
    ("backslash", has_byte (Char.equal '\\'));
    ("newline", has_byte (Char.equal '\n'));
    ("tab", has_byte (Char.equal '\t'));
    ("carriage return", has_byte (Char.equal '\r'));
    ("other control byte", has_byte (fun ch -> Char.code ch < 0x20 && not (String.contains "\n\t\r" ch)));
    ("byte >= 0x80", has_byte (fun ch -> Char.code ch >= 0x80));
    ( "string with nothing to escape",
      fun c ->
        List.exists
          (fun b ->
            List.exists
              (fun s ->
                s <> ""
                && String.for_all (fun ch -> Char.code ch >= 0x20 && ch <> '"' && ch <> '\\') s)
              (strings_of b))
          (bodies c) );
    ("negative int", has_int (fun i -> i < 0));
    ("zero", has_int (fun i -> i = 0));
    ("min_int", has_int (fun i -> i = min_int));
    ("max_int", has_int (fun i -> i = max_int));
    ("empty suspect set", has_view (fun s _ -> Sim.Pid.Set.is_empty s));
    ("singleton suspect set", has_view (fun s _ -> Sim.Pid.Set.cardinal s = 1));
    ( "suspects inserted out of order",
      fun c -> List.exists (fun (_, inserted) -> not (ascending inserted)) c.recorded );
    ("trusted None", has_view (fun _ t -> Option.is_none t));
    ("trusted Some", has_view (fun _ t -> Option.is_some t));
  ]
  @ List.map
      (fun kind -> (kind, fun c -> List.exists (fun b -> String.equal (kind_of b) kind) (bodies c)))
      [ "send"; "deliver"; "drop"; "crash"; "fd_view"; "propose"; "decide"; "note"; "span_begin"; "span_end" ]

let coverage =
  Alcotest.test_case "the generator hits every trap in a quarter of 200 traces" `Quick (fun () ->
      let cases = QCheck2.Gen.generate ~rand:(Random.State.make [| 18 |]) ~n:200 case in
      List.iter
        (fun (name, hit) ->
          let hits = List.length (List.filter hit cases) in
          Printf.printf "%s: %d of 200\n" name hits;
          if hits < 50 then Alcotest.failf "%s: in %d of 200 traces, fewer than 50" name hits)
        traps)

let suites = [ ("obs.export_model", [ differential; coverage ]) ]
