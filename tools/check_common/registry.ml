(* The rule registry — the one place a rule is added.

   Four families share one driver and one suppression attribute:
     R  determinism & hygiene (ambient nondeterminism, payload kinds,
        interfaces, static observability names);
     A  typed analysis (pool-job purity, callback exception-safety,
        polymorphic compare, unordered escape);
     Z  zero allocation from the [@alloc.zero] roots — four facets of the
        one walk in alloc_walk.ml;
     D  domain safety — D1/D2 are facets of the walk in domain_walk.ml,
        D4 shares R1's banned-identifier implementation.
   The ids R2, R3 and D3 are retired and not reused (R2 is A4, R3 is
   A3; D3 went with the sharded back-end). *)

(* A rule that selects its own findings from a shared walk. *)
let facet walk id key doc : Trule.t =
  let run index = List.filter (fun (f : Finding.t) -> String.equal f.rule id) (walk index) in
  { id; key; doc; run }

let all : Trule.t list =
  [
    Rule_banned.r1;
    Rule_payload.rule;  (* R4 *)
    Rule_mli.rule;  (* R5 *)
    Rule_obsname.rule;  (* R6 *)
    Rule_pure.rule;  (* A1 *)
    Rule_exnsafe.rule;  (* A2 *)
    Rule_polycmp.rule;  (* A3 *)
    Rule_unordered.rule;  (* A4 *)
    facet Alloc_walk.findings "Z1" "closure"
      "closure or partial application on a zero-alloc path (hoist local functions \
       to module level; apply fully)";
    facet Alloc_walk.findings "Z2" "boxed"
      "boxed value on a zero-alloc path: constructor with arguments, tuple, \
       record, variant payload, ref cell, lazy thunk, boxed float";
    facet Alloc_walk.findings "Z3" "bulk"
      "bulk allocation on a zero-alloc path: array/string/bytes/list/buffer/format \
       construction";
    facet Alloc_walk.findings "Z4" "extern"
      "call the checker cannot see through: an unclassified external, or a \
       statically-unknown function value (field, callback parameter)";
    facet Domain_walk.findings "D1" "escape"
      "domain escape: code reachable from a pool/spawn closure or a \
       [@race.domain] hook must not write non-Atomic mutable state captured \
       from outside the cone, nor call statically-unknown function values \
       without a waiver";
    facet Domain_walk.findings "D2" "publish"
      "cross-domain publication: reads of mutable state created outside the \
       domain cone need an Atomic or a pool-barrier handoff";
    Rule_banned.d4;
  ]

let print () =
  List.iter (fun (r : Trule.t) -> Printf.printf "%-5s %-9s %s\n" r.id r.key r.doc) all;
  print_string
    "CHECK check     a [@check.allow] attribute itself is malformed, lacks a reason, \
     or names an unknown rule key\n\
     STALE           a [@check.allow] span that suppresses nothing\n\
     CMT   cmt       a .cmt file below the scanned roots could not be read\n"
