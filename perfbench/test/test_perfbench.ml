(* Tests for the benchmark's own code: the percentile rule, the step
   classifier and the diagnosis rule. *)

open Perfbench
module P = Protocol_workload
module World = Concilium_core.World
module Protocol = Concilium_core.Protocol
module Stewardship = Concilium_core.Stewardship

(* ---------- percentile rule ---------- *)

let label = function None -> "none" | Some p -> p.Stats.label

let test_tail_percentile () =
  let check n expected = Alcotest.(check string) (Printf.sprintf "tail of %d" n) expected (label (Stats.tail ~n)) in
  check 19 "none";
  check 20 "p50";
  check 99 "p50";
  check 100 "p90";
  check 999 "p90";
  check 1000 "p99";
  check 10_000 "p99.9";
  check 100_000 "p99.99"

let test_nearest_rank () =
  let samples = Array.init 100 (fun i -> float_of_int (100 - i)) in
  let sorted = Stats.sorted samples in
  Alcotest.(check (float 0.)) "p50 of 1..100" 50. (Stats.value sorted Stats.p50);
  Alcotest.(check (float 0.)) "p90 of 1..100" 90. (Stats.value sorted Stats.p90);
  Alcotest.(check int) "ten samples beyond p90" 10 (Stats.beyond ~n:100 Stats.p90);
  Alcotest.(check (float 0.)) "median of one" 7. (Stats.median [| 7. |])

let test_describe_counts () =
  let line = Stats.describe ~name:"episode_ms" ~unit:"ms" (Array.init 1000 float_of_int) in
  Alcotest.(check bool) "names the tail and the count" true
    (String.ends_with ~suffix:"episode_ms.p99 = 989.0000 ms (n=1000)" line)

(* ---------- diagnosis rule ---------- *)

let outcome ?(delivered = false) ?drop ?diagnosis () =
  {
    Protocol.message_id = "m";
    delivered;
    attempts = 3;
    route = [ 0; 1; 2 ];
    drop;
    diagnosis;
    no_commitment_from = None;
  }

let diagnosed target =
  Protocol.Diagnosed { Stewardship.final = target; exonerated = []; judgments_used = 1 }

let verdict = function
  | Outcome.Delivered -> "delivered"
  | Outcome.Correct -> "correct"
  | Outcome.Wrong -> "wrong"
  | Outcome.Undiagnosed -> "undiagnosed"

(* The cases of bin/concilium_sim.ml's ground-truth match. *)
let test_diagnosis_rule () =
  let cases =
    [
      ("delivered", outcome ~delivered:true (), "delivered");
      ("no diagnosis", outcome ~drop:(Protocol.Dropped_by_overlay 1) (), "undiagnosed");
      ( "insufficient evidence",
        outcome ~drop:(Protocol.Dropped_by_overlay 1)
          ~diagnosis:(Protocol.Insufficient_evidence { judge = 0; usable_rounds = 2; required_rounds = 10 })
          (),
        "undiagnosed" );
      ("no final target", outcome ~drop:(Protocol.Dropped_by_overlay 1) ~diagnosis:(diagnosed None) (), "undiagnosed");
      ( "dropper named",
        outcome ~drop:(Protocol.Dropped_by_overlay 1) ~diagnosis:(diagnosed (Some (Stewardship.Next_hop 1))) (),
        "correct" );
      ( "wrong node named",
        outcome ~drop:(Protocol.Dropped_by_overlay 1) ~diagnosis:(diagnosed (Some (Stewardship.Next_hop 2))) (),
        "wrong" );
      ( "network for a lossy link",
        outcome ~drop:(Protocol.Dropped_on_ip_link 9) ~diagnosis:(diagnosed (Some Stewardship.Network)) (),
        "correct" );
      ( "network for a lost ack",
        outcome ~drop:(Protocol.Ack_lost_on_link 9) ~diagnosis:(diagnosed (Some Stewardship.Network)) (),
        "correct" );
      ( "network for a dropper",
        outcome ~drop:(Protocol.Dropped_by_overlay 1) ~diagnosis:(diagnosed (Some Stewardship.Network)) (),
        "wrong" );
      ( "node for a lossy link",
        outcome ~drop:(Protocol.Dropped_on_ip_link 9) ~diagnosis:(diagnosed (Some (Stewardship.Next_hop 1))) (),
        "wrong" );
      ( "offline hop found offline",
        outcome ~drop:(Protocol.Hop_offline 2) ~diagnosis:(diagnosed (Some (Stewardship.Offline 2))) (),
        "correct" );
      ( "offline hop blamed",
        outcome ~drop:(Protocol.Hop_offline 2) ~diagnosis:(diagnosed (Some (Stewardship.Next_hop 2))) (),
        "correct" );
      ( "offline for a dropper",
        outcome ~drop:(Protocol.Dropped_by_overlay 2) ~diagnosis:(diagnosed (Some (Stewardship.Offline 2))) (),
        "wrong" );
    ]
  in
  List.iter
    (fun (name, o, expected) -> Alcotest.(check string) name expected (verdict (Outcome.classify o)))
    cases

let test_outcome_contract () =
  Alcotest.(check bool) "delivered" true (Outcome.well_formed (outcome ~delivered:true ()));
  Alcotest.(check bool) "diagnosed drop" true
    (Outcome.well_formed (outcome ~drop:(Protocol.Dropped_by_overlay 1) ~diagnosis:(diagnosed None) ()));
  Alcotest.(check bool) "undelivered without a diagnosis" false
    (Outcome.well_formed (outcome ~drop:(Protocol.Dropped_by_overlay 1) ()))

(* ---------- step classifier ---------- *)

let tiny = { P.paper_burst with P.world_config = World.tiny_config; world_seed = 5L; traffic = P.Burst { clients = 8 } }

let test_step_classifier () =
  let world = P.build_world tiny in
  let steps = 4_000 in
  let plain = P.create tiny ~world ~seed:3L ~seconds:1. ~traced:false in
  let plain_run = P.run_steps plain ~steps in
  let traced = P.create tiny ~world ~seed:3L ~seconds:1. ~traced:true in
  let traced_run = P.run_steps traced ~steps in
  let tracer = Option.get traced.P.tracer in
  Alcotest.(check int) "same steps" plain_run.P.steps traced_run.P.steps;
  Alcotest.(check int) "every step classified" traced_run.P.steps (Steps.total_steps tracer);
  Alcotest.(check int) "no step classified twice" 0 (Steps.both_flags tracer);
  Alcotest.(check int) "spans only in judgments" 0 (Steps.spans_outside_judgment tracer);
  Alcotest.(check bool) "light rounds seen" true (Steps.steps tracer Steps.Light > 0);
  Alcotest.(check int) "one judgment step per diagnosis" traced.P.tally.P.episodes
    (Steps.steps tracer Steps.Judgment);
  Alcotest.(check bool) "diagnoses seen" true (traced.P.tally.P.episodes > 0);
  Alcotest.(check int) "outcomes" (Outcome.Digest.lines plain.P.tally.P.digest)
    (Outcome.Digest.lines traced.P.tally.P.digest);
  Alcotest.(check int64) "the classifier's tap leaves the outcome digest unchanged"
    (Outcome.Digest.value plain.P.tally.P.digest) (Outcome.Digest.value traced.P.tally.P.digest)

let () =
  Alcotest.run "perfbench"
    [
      ( "percentiles",
        [
          Alcotest.test_case "tail percentile" `Quick test_tail_percentile;
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "describe" `Quick test_describe_counts;
        ] );
      ( "outcomes",
        [
          Alcotest.test_case "diagnosis rule" `Quick test_diagnosis_rule;
          Alcotest.test_case "outcome contract" `Quick test_outcome_contract;
        ] );
      ("steps", [ Alcotest.test_case "classifier on tiny world" `Quick test_step_classifier ]);
    ]
