(* ecfd-racecheck: the repo's interprocedural domain-safety checker.

   The job pool (lib/exec) executes code on worker domains; TSan can only tell us about the
   interleavings a particular run happened to explore.  This pass makes
   the domain-safety argument static: it loads the .cmt files dune
   already produced and proves, for every closure that crosses onto a
   worker domain, that it writes no foreign mutable state (D1), reads no
   unpublished mutable state (D2), and that blocking primitives stay
   inside the sanctioned boundary (D4).  The id D3 is retired and not
   reused.

     ecfd_racecheck [--list-rules] [--json FILE] [DIR ...]

   Scans every .cmt below the given directories (default: lib bench,
   i.e. the library build trees when run from inside _build/default via
   `dune build @racecheck`), prints findings as "file:line: [RULE]
   message" and exits non-zero if there are any.  With [--json FILE] the
   findings are also written as a JSON array (empty on a clean pass) for
   CI artifacts.  See HACKING.md, "Domain-safety (D-rules)". *)

open Racecheck_core

let usage () =
  prerr_endline
    "usage: ecfd_racecheck [--list-rules] [--json FILE] [DIR ...]   (default dirs: \
     lib bench)";
  exit 2

let list_rules () =
  List.iter
    (fun (r : Drule.t) -> Printf.printf "%-4s %-12s %s\n" r.id r.key r.doc)
    Registry.all;
  print_string
    "RACE race         a [@race.allow] attribute itself is malformed or lacks a \
     reason\n\
     CMT  cmt          a .cmt file below the scanned roots could not be read\n"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "--help" args || List.mem "-h" args then usage ();
  if List.mem "--list-rules" args then begin
    list_rules ();
    exit 0
  end;
  let json_file = ref None in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--json" :: file :: rest ->
      json_file := Some file;
      parse acc rest
    | "--json" :: [] -> usage ()
    | a :: rest ->
      if String.length a > 0 && a.[0] = '-' then usage ();
      parse (a :: acc) rest
  in
  let roots =
    match parse [] args with
    | [] -> Check_common.Cmt_source.default_roots
    | roots -> roots
  in
  List.iter
    (fun r ->
      if not (Sys.file_exists r) then begin
        Printf.eprintf "ecfd-racecheck: no such file or directory: %s\n" r;
        exit 2
      end)
    roots;
  let r = Driver.run roots in
  if r.Check_common.Cmt_driver.n_units = 0 then begin
    Printf.eprintf
      "ecfd-racecheck: no .cmt files below %s — build first (dune build @all)\n"
      (String.concat " " roots);
    exit 2
  end;
  exit
    (Check_common.Report.emit ~tool:"ecfd-racecheck" ?json:!json_file
       ~suppressed:r.Check_common.Cmt_driver.suppressed
       ~clean_note:
         (Printf.sprintf "%d rule(s) over %d unit(s) below %s"
            (List.length Registry.all) r.Check_common.Cmt_driver.n_units
            (String.concat " " roots))
       r.Check_common.Cmt_driver.findings)
