(* The rule type.  Every rule sees the full index (all loaded compilation
   units plus the value tables) and returns findings; suppression
   ([@check.allow <key> "reason"]) and output formatting are applied by
   the driver (Cmt_driver). *)

type t = {
  id : string;  (** Printed in findings: [R1], [A1], [Z1], [D1], ... *)
  key : string;  (** Suppression key: [@check.allow <key> "reason"]. *)
  doc : string;  (** One-line description for [--list-rules]. *)
  run : Index.t -> Finding.t list;
}
