(* The D-rule registry — the one place a new domain-safety rule is added
   (mirrors tools/analyze/registry.ml for the A-rules). *)

let all : Drule.t list =
  [
    Rule_escape.rule;  (* D1 *)
    Rule_publish.rule;  (* D2 *)
    Rule_blocking.rule;  (* D4 *)
  ]
