(* R1 and D4 — banned identifiers outside their sanctioned path.

   One implementation, two tables.  Each table names the identifiers it
   bans and the one place in the tree allowed to use them; every other
   reference is flagged where it is written.  Paths are resolved by the
   typechecker, so [open Random], a module alias or an eta-expansion
   cannot hide a use.

   R1 (key [ambient]) — no ambient nondeterminism.  The simulator's
   contract (engine.mli) is that a run is a pure function of (seed,
   configuration, component code).  [Random.*], the wall clocks
   [Unix.time]/[Unix.gettimeofday], the process clock [Sys.time] and
   [Hashtbl.create ~random] break that silently, so they are banned
   everywhere except the seeded generator itself, lib/sim/rng.ml:
   randomness must flow through [Sim.Rng], time through [Sim_time] and
   the engine clock.

   D4 (key [blocking]) — blocking/ordering hazards.  [Domain], [Atomic],
   [Mutex], [Condition] and [Semaphore] are confined to lib/exec/, the
   job pool.  A spawn in simulated code forks the determinism story; a
   mutex can deadlock against the pool's own joins; an ad-hoc Atomic
   invents a synchronisation protocol the checker cannot see.

   A sanctioned path matches by whole path segments anywhere in the
   source path, so a decoy file elsewhere (bench/rng.ml, a shard.ml
   outside lib/exec/) gets no exemption from its name. *)

(* Does [path] contain the segment sequence [pat]? *)
let under pat path =
  let rec is_prefix pat segs =
    match (pat, segs) with
    | [], _ -> true
    | p :: pat, s :: segs -> String.equal p s && is_prefix pat segs
    | _ :: _, [] -> false
  in
  let rec scan = function [] -> false | _ :: rest as segs -> is_prefix pat segs || scan rest in
  scan (String.split_on_char '/' path)

let exec_boundary = [ "lib"; "exec" ]

let ambient (e : Typedtree.expression) =
  let flag loc what = Some (loc, "ambient nondeterminism: " ^ what) in
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
    match Tast_util.path_of p with
    | "Random" :: _ as np ->
      flag e.exp_loc
        (Tast_util.dotted np ^ "; all randomness must flow through the seeded Sim.Rng")
    | [ "Unix"; ("time" | "gettimeofday") ] as np ->
      flag e.exp_loc (Tast_util.dotted np ^ " reads the wall clock; use Sim_time / Engine.now")
    | [ "Sys"; "time" ] ->
      flag e.exp_loc "Sys.time reads the process clock; use Sim_time / Engine.now"
    | _ -> None)
  | Texp_apply (f, args) -> (
    match Tast_util.head_path f with
    | Some np when Tast_util.has_suffix ~suffix:[ "Hashtbl"; "create" ] np ->
      (* An omitted [?random] is filled in by the typechecker as [None]. *)
      List.find_map
        (fun ((label : Asttypes.arg_label), (arg : Typedtree.expression option)) ->
          match (label, arg) with
          | ( Optional "random",
              Some { exp_desc = Texp_construct (_, { cstr_name = "None"; _ }, []); _ } ) ->
            None
          | (Labelled "random" | Optional "random"), Some arg ->
            flag arg.exp_loc
              "Hashtbl.create ~random randomises iteration order per run; drop the flag"
          | _ -> None)
        args
    | _ -> None)
  | _ -> None

let multicore_roots = [ "Domain"; "Atomic"; "Mutex"; "Condition"; "Semaphore" ]

let blocking (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
    match Tast_util.path_of p with
    | root :: _ :: _ as np when List.mem root multicore_roots ->
      Some
        ( e.exp_loc,
          Printf.sprintf
            "multicore primitive %s outside the sanctioned boundary (lib/exec/) — \
             simulated code must stay domain-free and deterministic; parallelism \
             belongs to the pool (HACKING.md \"The job pool\")"
            (Tast_util.dotted np) )
    | _ -> None)
  | _ -> None

let rule ~id ~key ~doc ~sanctioned banned : Trule.t =
  let run (index : Index.t) =
    let findings = ref [] in
    let seen = Hashtbl.create 32 in
    List.iter
      (fun (source : Cmt_source.t) ->
        if not (under sanctioned source.source_path) then
          Tast_util.iter_structure_expressions
            (fun e ->
              match banned e with
              | Some (loc, msg) ->
                let k = (loc.Location.loc_start.pos_fname, loc.loc_start.pos_cnum) in
                if not (Hashtbl.mem seen k) then begin
                  Hashtbl.add seen k ();
                  findings := Finding.of_loc ~rule:id ~key ~msg loc :: !findings
                end
              | None -> ())
            source.str)
      index.sources;
    List.rev !findings
  in
  { id; key; doc; run }

let r1 =
  rule ~id:"R1" ~key:"ambient" ~sanctioned:[ "lib"; "sim"; "rng.ml" ] ambient
    ~doc:
      "no ambient nondeterminism: Random.*, Unix.time/gettimeofday, Sys.time and \
       Hashtbl.create ~random are banned outside lib/sim/rng.ml"

let d4 =
  rule ~id:"D4" ~key:"blocking" ~sanctioned:exec_boundary blocking
    ~doc:
      "blocking/ordering hazards: Domain/Atomic/Mutex/Condition/Semaphore are \
       confined to lib/exec/"
