(* Lockstep conformance checker: run randomized chaos-derived schedules
   through the optimized protocol state machines and their reference
   models, in lockstep, and fail on the first divergence.

   The stdout transcript is deterministic: schedule seeds are fixed by
   --seed/--budget and the fan-out uses pre-split streams, so the bytes
   are identical for any --domains value (CI diffs --domains 1 vs 2).

   --inject-bug NAME deliberately mis-implements one boundary on the
   implementation side; with --expect-divergence the run then *fails*
   unless the checker catches the mutation and shrinks it to a minimal
   counterexample — the canary proving the checker can see. --replay FILE
   re-runs a previously written counterexample artifact. *)

module Harness = Concilium_check.Harness
module Lockstep = Concilium_check.Lockstep
module Schedule = Concilium_check.Schedule
module Json = Concilium_util.Json
module Flight = Concilium_obs.Flight
module Export = Concilium_obs.Export

let mutation_names = String.concat ", " (List.map Lockstep.mutation_name Lockstep.all_mutations)

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  contents

let run_replay path =
  match Harness.replay (read_file path) with
  | Error message ->
      Printf.eprintf "replay: %s\n" message;
      2
  | Ok result ->
      Printf.printf "replay seed=%d ops=%d mutation=%s\n" result.Harness.schedule.Schedule.seed
        (Schedule.op_count result.Harness.schedule)
        (match result.Harness.mutation with
        | None -> "none"
        | Some m -> Lockstep.mutation_name m);
      (match result.Harness.replay_divergence with
      | Some d ->
          Printf.printf "divergence reproduced: %s\n"
            (Format.asprintf "%a" Lockstep.pp_divergence d);
          0
      | None ->
          Printf.printf "divergence did NOT reproduce\n";
          1)

let run_budget ~budget ~seed ~domains ~mutation ~expect_divergence ~artifact_path
    ~flight_path ~reconcile_runs =
  let report = Harness.run_budget ?domains ?mutation ~base_seed:seed ~budget () in
  print_string (Harness.render_transcript report);
  (match (report.Harness.counterexample, artifact_path) with
  | Some (schedule, divergence), Some path ->
      Export.write_file ~path
        (Json.to_string_pretty (Harness.artifact ~schedule ~mutation ~divergence) ^ "\n")
  | _ -> ());
  (* Flight artifact: the minimized counterexample's schedule rendered as
     one JSONL line per op, dumped through the same ring-buffer format as
     the soak recorders, so a conformance failure ships the exact op
     sequence in the harness-wide artifact shape. *)
  (match (report.Harness.counterexample, flight_path) with
  | Some (schedule, divergence), Some path ->
      let flight = Flight.create () in
      let encoded = Schedule.encode schedule in
      (match encoded with
      | Json.Obj fields ->
          Flight.note flight
            (Json.to_string (Json.Obj (List.filter (fun (name, _) -> name <> "ops") fields)))
      | _ -> ());
      (match Option.bind (Json.member "ops" encoded) Json.to_list with
      | Some ops -> List.iter (fun op -> Flight.note flight (Json.to_string op)) ops
      | None -> ());
      Flight.write ~path ~reason:(Format.asprintf "%a" Lockstep.pp_divergence divergence)
        flight
  | _ -> ());
  let reconcile_ok = ref true in
  for i = 0 to reconcile_runs - 1 do
    let r = Harness.reconcile_bytes ~seed:(seed + (1000 * (i + 1))) in
    let ok = r.Harness.metered = r.Harness.charged && r.Harness.charged > 0 in
    if not ok then reconcile_ok := false;
    Printf.printf "reconcile seed=%d metered=%d charged=%d %s\n"
      (seed + (1000 * (i + 1)))
      r.Harness.metered r.Harness.charged
      (if ok then "ok" else "MISMATCH")
  done;
  if expect_divergence then begin
    (* Canary mode: the run passes only if the injected bug was caught and
       shrunk to a replayable counterexample. *)
    match report.Harness.counterexample with
    | Some (schedule, _) ->
        Printf.printf "canary caught: minimized to %d ops\n" (Schedule.op_count schedule);
        0
    | None ->
        Printf.printf "canary NOT caught\n";
        1
  end
  else if report.Harness.divergent = 0 && !reconcile_ok then 0
  else 1

let run budget seed domains inject_bug expect_divergence artifact_path flight_path
    reconcile_runs replay_path =
  match replay_path with
  | Some path -> run_replay path
  | None -> (
      match inject_bug with
      | Some name when Lockstep.mutation_of_name name = None ->
          Printf.eprintf "unknown mutation %S (expected one of: %s)\n" name mutation_names;
          2
      | _ ->
          let mutation = Option.bind inject_bug Lockstep.mutation_of_name in
          run_budget ~budget ~seed ~domains ~mutation ~expect_divergence ~artifact_path
            ~flight_path ~reconcile_runs)

open Cmdliner

let budget =
  Arg.(
    value & opt int 200
    & info [ "budget" ] ~docv:"N" ~doc:"Number of randomized schedules to run in lockstep.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Base seed; schedule i uses seed+i.")

let domains =
  let doc =
    "Domains for the schedule fan-out (default: recommended count; 1 = sequential). The \
     transcript is byte-identical for any value."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

let inject_bug =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject-bug" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf
             "Deliberately mis-implement one boundary on the implementation side (canary). \
              One of: %s."
             mutation_names))

let expect_divergence =
  Arg.(
    value & flag
    & info [ "expect-divergence" ]
        ~doc:
          "Invert the exit status: succeed only if a divergence was found and minimized \
           (use with --inject-bug).")

let artifact_path =
  Arg.(
    value
    & opt (some string) None
    & info [ "artifact" ] ~docv:"FILE"
        ~doc:"Write the minimized counterexample as JSON to $(docv) when a divergence is found.")

let flight_path =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight" ] ~docv:"FILE"
        ~doc:
          "When a divergence is found, dump the minimized counterexample schedule (one \
           JSONL line per op) through the flight-recorder format to $(docv). No file on a \
           green run.")

let reconcile_runs =
  Arg.(
    value & opt int 2
    & info [ "reconcile" ] ~docv:"N"
        ~doc:
          "End-to-end byte-reconciliation runs: full protocol executions whose obs byte \
           counters must equal the per-node control-byte totals exactly.")

let replay_path =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:"Re-run a counterexample artifact deterministically instead of generating \
              schedules.")

let cmd =
  let doc = "Lockstep conformance checker: reference models vs optimized implementations" in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const run $ budget $ seed $ domains $ inject_bug $ expect_divergence $ artifact_path
      $ flight_path $ reconcile_runs $ replay_path)

let () = exit (Cmd.eval' cmd)
