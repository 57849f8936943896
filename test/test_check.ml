(* Conformance checker: JSON round-trips, ddmin minimality, clean lockstep
   runs over generated schedules, injected-mutation canaries shrunk to
   replayable counterexamples, and obs byte reconciliation. *)

module Json = Concilium_util.Json
module Schedule = Concilium_check.Schedule
module Lockstep = Concilium_check.Lockstep
module Shrink = Concilium_check.Shrink
module Harness = Concilium_check.Harness

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ---------- JSON ---------- *)

let test_json_roundtrip_values () =
  let value =
    Json.Obj
      [
        ("null", Json.Null);
        ("flag", Json.Bool true);
        ("count", Json.Int (-42));
        ("exact", Json.Float 2716.0676158666021);
        ("text", Json.String "quote \" slash \\ newline \n tab \t");
        ("items", Json.List [ Json.Int 1; Json.Float 0.1; Json.String "x" ]);
        ("empty_list", Json.List []);
        ("empty_obj", Json.Obj []);
      ]
  in
  let compact = Json.to_string value in
  let pretty = Json.to_string_pretty value in
  (match Json.parse compact with
  | Ok parsed -> check Alcotest.bool "compact round-trips" true (parsed = value)
  | Error message -> Alcotest.fail message);
  match Json.parse pretty with
  | Ok parsed -> check Alcotest.bool "pretty round-trips" true (parsed = value)
  | Error message -> Alcotest.fail message

let test_json_rejects_malformed () =
  List.iter
    (fun text ->
      check Alcotest.bool (Printf.sprintf "rejects %s" text) true
        (Result.is_error (Json.parse text)))
    [ "{"; "[1,"; "{\"a\" 1}"; "tru"; "1 2"; "\"unterminated"; "{\"a\":}" ]

let prop_json_float_roundtrip =
  QCheck.Test.make ~name:"every finite float survives the JSON round-trip" ~count:500
    QCheck.(float_range (-1e12) 1e12)
    (fun f ->
      match Json.parse (Json.to_string (Json.Float f)) with
      | Ok (Json.Float g) -> Float.equal f g
      | Ok (Json.Int i) -> Float.equal f (float_of_int i)
      | _ -> false)

(* ---------- ddmin ---------- *)

let test_ddmin_minimizes_to_culprits () =
  let items = List.init 50 (fun i -> i) in
  let reproduces l = List.mem 17 l && List.mem 31 l in
  let minimized = Shrink.ddmin ~reproduces items in
  check (Alcotest.list Alcotest.int) "exactly the two culprits, in order" [ 17; 31 ]
    minimized

let test_ddmin_single_culprit () =
  let items = List.init 100 (fun i -> i) in
  let minimized = Shrink.ddmin ~reproduces:(fun l -> List.mem 63 l) items in
  check (Alcotest.list Alcotest.int) "one culprit" [ 63 ] minimized

let test_ddmin_non_reproducing_input_unchanged () =
  let items = [ 1; 2; 3 ] in
  check (Alcotest.list Alcotest.int) "unchanged" items
    (Shrink.ddmin ~reproduces:(fun _ -> false) items)

let prop_ddmin_result_is_one_minimal =
  QCheck.Test.make ~name:"ddmin results are 1-minimal" ~count:30
    QCheck.(pair (int_bound 40) (list_of_size (Gen.int_range 1 4) (int_bound 39)))
    (fun (size, culprit_seeds) ->
      let items = List.init (size + 2) (fun i -> i) in
      let culprits = List.sort_uniq Int.compare (List.map (fun c -> c mod (size + 2)) culprit_seeds) in
      let reproduces l = List.for_all (fun c -> List.mem c l) culprits in
      let minimized = Shrink.ddmin ~reproduces items in
      minimized = culprits)

(* ---------- Schedules ---------- *)

let test_schedule_generation_is_deterministic () =
  let a = Schedule.generate ~seed:9 in
  let b = Schedule.generate ~seed:9 in
  check Alcotest.bool "equal JSON encodings" true
    (String.equal (Json.to_string (Schedule.encode a)) (Json.to_string (Schedule.encode b)));
  check Alcotest.bool "non-trivial" true (Schedule.op_count a > 10)

let test_schedule_json_roundtrip () =
  let schedule = Schedule.generate ~seed:5 in
  check Alcotest.bool "covers stewardship ops" true
    (List.exists
       (function Schedule.Steward_resolve _ -> true | _ -> false)
       schedule.Schedule.ops);
  match Json.parse (Json.to_string (Schedule.encode schedule)) with
  | Error message -> Alcotest.fail message
  | Ok json -> (
      match Schedule.decode json with
      | Error message -> Alcotest.fail message
      | Ok decoded ->
          check Alcotest.bool "round-trips byte-for-byte" true
            (String.equal
               (Json.to_string (Schedule.encode schedule))
               (Json.to_string (Schedule.encode decoded))))

(* Replace field [name] of the first op tagged [tag]; returns the edited
   schedule and the op's position. *)
let edit_first_op json ~tag ~name value =
  let edited = ref None in
  let edit_op position op =
    match (!edited, Option.bind (Json.member "op" op) Json.string_value, op) with
    | None, Some t, Json.Obj fields when String.equal t tag ->
        edited := Some position;
        Json.Obj (List.map (fun (k, v) -> if String.equal k name then (k, value) else (k, v)) fields)
    | _ -> op
  in
  match json with
  | Json.Obj fields ->
      let fields =
        List.map
          (function
            | "ops", Json.List ops -> ("ops", Json.List (List.mapi edit_op ops)) | field -> field)
          fields
      in
      (match !edited with
      | Some position -> (Json.Obj fields, position)
      | None -> Alcotest.failf "no %s op to edit" tag)
  | _ -> Alcotest.fail "schedule is not a JSON object"

(* Lockstep indexes its per-node arrays with these fields, so a replayed
   artifact edited past [nodes] or below zero must fail to decode, naming
   the op and the field, rather than crash the run. *)
let test_schedule_rejects_bad_node_indices () =
  let schedule = Schedule.generate ~seed:5 in
  let nodes = schedule.Schedule.nodes in
  let json = Schedule.encode schedule in
  List.iter
    (fun (tag, name, value, what) ->
      let edited, position = edit_first_op json ~tag ~name value in
      let expected = Printf.sprintf "ops[%d]: %s is outside [0, %d)" position what nodes in
      match Schedule.decode edited with
      | Ok _ -> Alcotest.failf "decoded despite %s" expected
      | Error message -> check Alcotest.string (tag ^ "." ^ name) expected message)
    [
      ("win_record", "win", Json.Int 99, "field \"win\" = 99");
      ("win_record", "win", Json.Int nodes, Printf.sprintf "field \"win\" = %d" nodes);
      ("dht_put", "from", Json.Int 99, "field \"from\" = 99");
      ("dht_put", "accused", Json.Int (-1), "field \"accused\" = -1");
      ("dht_get", "accused", Json.Int (-1), "field \"accused\" = -1");
      ( "steward_resolve",
        "route",
        Json.List [ Json.Int 0; Json.Int (-2); Json.Int 1 ],
        "route[1]: hop = -2" );
    ];
  (* Each verdict window keeps a ring of the evidence of its newest m
     guilty verdicts. *)
  (match Schedule.decode (Schedule.encode { (Schedule.with_ops schedule []) with Schedule.m = 0 }) with
  | Ok _ -> Alcotest.fail "decoded m = 0"
  | Error message -> check Alcotest.string "m = 0" "m must be positive" message);
  (* A put signs its accusation with the votes of two more nodes. *)
  let three_nodes = Schedule.encode { (Schedule.with_ops schedule []) with Schedule.nodes = 3 } in
  match Schedule.decode three_nodes with
  | Ok _ -> Alcotest.fail "decoded a three-node schedule"
  | Error message -> check Alcotest.string "three nodes" "schedule needs at least four nodes" message

(* ---------- Lockstep ---------- *)

let test_lockstep_clean_on_generated_schedules () =
  List.iter
    (fun seed ->
      let schedule = Schedule.generate ~seed in
      match Lockstep.run schedule with
      | None -> ()
      | Some d ->
          Alcotest.failf "seed %d diverged: %s" seed
            (Format.asprintf "%a" Lockstep.pp_divergence d))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let find_caught_mutation mutation =
  (* Small deterministic search: some seeds do not exercise every boundary,
     but a handful always does (the CLI canary uses a 20-schedule budget). *)
  let rec search seed =
    if seed > 40 then Alcotest.failf "mutation %s never caught" (Lockstep.mutation_name mutation)
    else
      let schedule = Schedule.generate ~seed in
      match Lockstep.run ~mutation schedule with
      | Some divergence -> (schedule, divergence)
      | None -> search (seed + 1)
  in
  search 1

let test_mutations_caught_and_shrunk () =
  List.iter
    (fun mutation ->
      let schedule, _ = find_caught_mutation mutation in
      let reproduces ops =
        Option.is_some (Lockstep.run ~mutation (Schedule.with_ops schedule ops))
      in
      let minimized_ops = Shrink.ddmin ~reproduces schedule.Schedule.ops in
      check Alcotest.bool
        (Printf.sprintf "%s: minimized reproducer is small" (Lockstep.mutation_name mutation))
        true
        (List.length minimized_ops <= 4 && minimized_ops <> []);
      (* 1-minimality: removing any single op loses the divergence. *)
      List.iteri
        (fun i _ ->
          let without = List.filteri (fun j _ -> j <> i) minimized_ops in
          check Alcotest.bool
            (Printf.sprintf "%s: op %d is essential" (Lockstep.mutation_name mutation) i)
            false
            (without <> [] && reproduces without))
        minimized_ops;
      (* The clean implementation passes the minimized schedule. *)
      check Alcotest.bool
        (Printf.sprintf "%s: clean implementation passes reproducer"
           (Lockstep.mutation_name mutation))
        true
        (Lockstep.run (Schedule.with_ops schedule minimized_ops) = None))
    Lockstep.all_mutations

let test_artifact_replay_roundtrip () =
  let mutation = Lockstep.Stewardship_trust_withheld in
  let schedule, divergence = find_caught_mutation mutation in
  let text =
    Json.to_string_pretty (Harness.artifact ~schedule ~mutation:(Some mutation) ~divergence)
  in
  match Harness.replay text with
  | Error message -> Alcotest.fail message
  | Ok result ->
      check Alcotest.bool "mutation preserved" true
        (result.Harness.mutation = Some mutation);
      check Alcotest.bool "divergence reproduces" true
        (Option.is_some result.Harness.replay_divergence)

let test_run_budget_reports_and_minimizes () =
  let clean = Harness.run_budget ~domains:1 ~base_seed:1 ~budget:4 () in
  check Alcotest.int "clean budget has no divergences" 0 clean.Harness.divergent;
  check Alcotest.int "all outcomes reported" 4 (List.length clean.Harness.outcomes);
  let canary =
    Harness.run_budget ~domains:1 ~mutation:Lockstep.Stewardship_trust_withheld ~base_seed:1
      ~budget:10 ()
  in
  check Alcotest.bool "canary diverges" true (canary.Harness.divergent > 0);
  match canary.Harness.counterexample with
  | None -> Alcotest.fail "no counterexample minimized"
  | Some (schedule, _) ->
      check Alcotest.bool "counterexample is small" true (Schedule.op_count schedule <= 4)

let test_byte_reconciliation_exact () =
  let r = Harness.reconcile_bytes ~seed:11 in
  check Alcotest.bool "bytes flowed" true (r.Harness.charged > 0);
  check Alcotest.int "obs counters reconcile with control bytes" r.Harness.charged
    r.Harness.metered

let suites =
  [
    ( "check.json",
      [
        Alcotest.test_case "value round-trip" `Quick test_json_roundtrip_values;
        Alcotest.test_case "malformed rejected" `Quick test_json_rejects_malformed;
        qtest prop_json_float_roundtrip;
      ] );
    ( "check.shrink",
      [
        Alcotest.test_case "two culprits" `Quick test_ddmin_minimizes_to_culprits;
        Alcotest.test_case "single culprit" `Quick test_ddmin_single_culprit;
        Alcotest.test_case "non-reproducing unchanged" `Quick
          test_ddmin_non_reproducing_input_unchanged;
        qtest prop_ddmin_result_is_one_minimal;
      ] );
    ( "check.schedule",
      [
        Alcotest.test_case "deterministic generation" `Quick
          test_schedule_generation_is_deterministic;
        Alcotest.test_case "JSON round-trip" `Quick test_schedule_json_roundtrip;
        Alcotest.test_case "node indices range-checked" `Quick
          test_schedule_rejects_bad_node_indices;
      ] );
    ( "check.lockstep",
      [
        Alcotest.test_case "clean schedules agree" `Slow
          test_lockstep_clean_on_generated_schedules;
        Alcotest.test_case "mutations caught and shrunk" `Slow
          test_mutations_caught_and_shrunk;
        Alcotest.test_case "artifact replay round-trip" `Quick test_artifact_replay_roundtrip;
        Alcotest.test_case "budget run minimizes" `Slow test_run_budget_reports_and_minimizes;
        Alcotest.test_case "byte reconciliation exact" `Slow test_byte_reconciliation_exact;
      ] );
  ]
