(* Standalone pool exerciser for the ThreadSanitizer CI job.

   Kept free of compiler-libs (and of everything else but Exec): the
   TSan job builds with the 5.2 tsan compiler variant while the repo's
   static checker pins compiler-libs to 5.1, so the full test binary cannot
   run there.  This drives the same contract test_exec checks
   in-process: parallel results are byte-identical to sequential, under
   enough jobs and domains (ECFD_DOMAINS=4 in CI) that TSan sees real
   worker contention on the job counter and the result slots. *)

let heavy i () =
  let acc = ref 0 in
  for k = 0 to 5_000 + i do
    acc := !acc + (k mod 7)
  done;
  (i, !acc)

let () =
  let jobs = List.init 400 heavy in
  let seq = Exec.Pool.run ~domains:1 jobs in
  let par = Exec.Pool.run jobs in
  if not (List.equal (fun (a, b) (c, d) -> a = c && b = d) seq par) then begin
    prerr_endline "tsan_pool: parallel results differ from sequential";
    exit 1
  end;
  (* Nested run: documented degradation to in-worker sequential, must not
     deadlock or race. *)
  let nested =
    Exec.Pool.run
      (List.init 8 (fun i () -> Exec.Pool.run (List.init 4 (fun j () -> (10 * i) + j))))
  in
  if List.length nested <> 8 then begin
    prerr_endline "tsan_pool: nested run shape wrong";
    exit 1
  end;
  (* Exception path: lowest-indexed failure wins regardless of schedule. *)
  (match
     Exec.Pool.run
       (List.init 64 (fun i () -> if i mod 3 = 1 then failwith (string_of_int i) else i))
   with
  | _ ->
    prerr_endline "tsan_pool: failing run did not raise";
    exit 1
  | exception Failure other ->
    if other <> "1" then begin
      prerr_endline ("tsan_pool: wrong failing job won: " ^ other);
      exit 1
    end);
  let m = Exec.Pool.metrics () in
  if m.Exec.Pool.runs < 3 then begin
    prerr_endline "tsan_pool: metrics lost runs";
    exit 1
  end;
  print_endline "tsan_pool: OK"
