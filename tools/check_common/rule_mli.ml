(* R5 — every library module has an interface.

   An [.mli] is what keeps a module's mutable internals (tables, refs,
   caches) out of reach; a missing one silently widens the API.  Applies to
   every [.ml] under a [lib] directory: dune writes the [.cmti] of a
   module's interface next to its [.cmt], so a unit without one has no
   [.mli]. *)

let rule_id = "R5"
let key = "mli"

let run (index : Index.t) =
  List.filter_map
    (fun (src : Cmt_source.t) ->
      let ml = src.source_path in
      if
        Filename.check_suffix ml ".ml"
        && Rule_banned.under [ "lib" ] ml
        && not (Sys.file_exists (Filename.remove_extension src.cmt_path ^ ".cmti"))
      then
        Some
          {
            Finding.file = ml;
            line = 1;
            col = 0;
            offset = 0;
            rule = rule_id;
            key;
            msg =
              Printf.sprintf
                "missing interface: %s has no %si — every lib/ module must declare its API"
                ml (Filename.basename ml);
            chain = [];
          }
      else None)
    index.sources

let rule : Trule.t =
  { id = rule_id; key; doc = "every lib/**/*.ml has a matching .mli"; run }
