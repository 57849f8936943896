(* The adversary layer: soak-invariant exit contract (the chaos binary's
   regression surface), strategy compilation and tap behaviour, targeted
   campaign builders, and plan-sampling determinism. *)

module Chaos = Concilium_netsim.Chaos
module Protocol = Concilium_core.Protocol
module World = Concilium_core.World
module Prng = Concilium_util.Prng
module Strategy = Concilium_adversary.Strategy
module Soak = Concilium_adversary.Soak_invariants

let check = Alcotest.check

let world_fixture = lazy (World.build (World.tiny_config ~seed:77L))

(* ---------- Soak invariants: the exit-status contract ---------- *)

let test_soak_benign_passes () =
  check Alcotest.bool "benign passes" true (Soak.pass Soak.benign);
  check (Alcotest.list Alcotest.string) "no failures" [] (Soak.failures Soak.benign)

let test_soak_each_violation_fails () =
  let cases =
    [
      ("runtime-exception", { Soak.benign with Soak.failure = Some "boom" });
      ("missing-outcomes", { Soak.benign with Soak.missing_outcomes = 1 });
      ("unresolved-episodes", { Soak.benign with Soak.unresolved = 2 });
      ("honest-node-accused", { Soak.benign with Soak.honest_accusations = 1 });
    ]
  in
  List.iter
    (fun (label, inputs) ->
      check Alcotest.bool (label ^ " fails") false (Soak.pass inputs);
      check Alcotest.bool
        (label ^ " labelled")
        true
        (List.mem label (Soak.failures inputs)))
    cases

let test_soak_detection_contract () =
  (* A detection scenario fails when its adversary never acted (inert) or
     acted without being caught (undetected)... *)
  let armed =
    {
      Soak.benign with
      Soak.adversary_present = true;
      adversary_fired = false;
      adversary_detected = false;
      require_detection = true;
    }
  in
  check (Alcotest.list Alcotest.string) "inert label" [ "adversary-inert" ]
    (Soak.failures armed);
  let fired = { armed with Soak.adversary_fired = true } in
  check (Alcotest.list Alcotest.string) "undetected label" [ "adversary-undetected" ]
    (Soak.failures fired);
  let caught = { fired with Soak.adversary_detected = true } in
  check Alcotest.bool "fired and detected passes" true (Soak.pass caught);
  (* ...but a background-pressure scenario only demands survival. *)
  let pressure = { armed with Soak.require_detection = false } in
  check Alcotest.bool "pressure scenario passes" true (Soak.pass pressure)

let test_soak_exit_code () =
  check Alcotest.int "all passed -> 0" 0 (Soak.exit_code ~pass_all:true);
  check Alcotest.int "any failure -> 1" 1 (Soak.exit_code ~pass_all:false)

(* ---------- Strategy compilation ---------- *)

let compile ?(seed = 5L) plan =
  let world = Lazy.force world_fixture in
  Strategy.compile ~world ~rng:(Prng.of_seed seed) plan

let test_empty_plan_is_identity () =
  let s = compile [] in
  check (Alcotest.array Alcotest.int) "nobody compromised" [||] (Strategy.compromised s);
  let taps = Strategy.taps s in
  check Alcotest.bool "forward defers" true
    (taps.Protocol.tap_forward ~time:100. ~node:1 ~sender:0 ~next:2 = None);
  check Alcotest.bool "observation untouched" true
    (taps.Protocol.tap_observation ~time:100. ~prober:3 ~link:7 ~up:true);
  check Alcotest.bool "no forgeries" true
    (taps.Protocol.tap_forged_reports ~time:100. ~prober:3 = [])

let collusion_plan ~members ~start ~duration =
  [
    Chaos.Collusion
      { members; drop_probability = 1.; corroboration = 1.; start; duration };
  ]

let test_collusion_membership_and_window () =
  let members = [| 1; 4; 9 |] in
  let s = compile (collusion_plan ~members ~start:100. ~duration:500.) in
  check (Alcotest.array Alcotest.int) "members compromised" members
    (Strategy.compromised s);
  Array.iter
    (fun m -> check Alcotest.bool "is_compromised" true (Strategy.is_compromised s m))
    members;
  check Alcotest.bool "outsider not compromised" false (Strategy.is_compromised s 0);
  let taps = Strategy.taps s in
  (* drop_probability 1.0: inside the window a member always eats the
     message; outside the window, and for non-members, the tap defers. *)
  check Alcotest.bool "member drops in window" true
    (taps.Protocol.tap_forward ~time:300. ~node:4 ~sender:0 ~next:2
    = Some Protocol.Tap_drop);
  check Alcotest.bool "member inert before start" true
    (taps.Protocol.tap_forward ~time:50. ~node:4 ~sender:0 ~next:2 = None);
  check Alcotest.bool "member inert after stop" true
    (taps.Protocol.tap_forward ~time:700. ~node:4 ~sender:0 ~next:2 = None);
  check Alcotest.bool "honest node untouched" true
    (taps.Protocol.tap_forward ~time:300. ~node:2 ~sender:0 ~next:3 = None)

let test_forged_reports_bounded_by_forest () =
  let world = Lazy.force world_fixture in
  let members = [| 1; 4; 9 |] in
  let s = compile (collusion_plan ~members ~start:0. ~duration:1000.) in
  let taps = Strategy.taps s in
  let in_forest prober link =
    Array.exists (fun l -> l = link) (World.forest_links world prober)
  in
  Array.iter
    (fun m ->
      let forged = taps.Protocol.tap_forged_reports ~time:500. ~prober:m in
      List.iter
        (fun (link, _) ->
          check Alcotest.bool
            (Printf.sprintf "member %d forges only inside its forest (link %d)" m link)
            true (in_forest m link))
        forged)
    members;
  check Alcotest.bool "honest prober forges nothing" true
    (taps.Protocol.tap_forged_reports ~time:500. ~prober:0 = [])

let test_compile_deterministic () =
  (* Same seed, same plan: every tap decision replays identically. *)
  let plan = collusion_plan ~members:[| 1; 4 |] ~start:0. ~duration:1000. in
  let a = Strategy.taps (compile ~seed:5L plan) in
  let b = Strategy.taps (compile ~seed:5L plan) in
  for i = 0 to 49 do
    let time = 10. *. float_of_int i in
    check Alcotest.bool
      (Printf.sprintf "forward decision %d replays" i)
      true
      (a.Protocol.tap_forward ~time ~node:4 ~sender:0 ~next:2
      = b.Protocol.tap_forward ~time ~node:4 ~sender:0 ~next:2)
  done;
  check Alcotest.bool "forgeries replay" true
    (a.Protocol.tap_forged_reports ~time:500. ~prober:1
    = b.Protocol.tap_forged_reports ~time:500. ~prober:1)

let test_lying_victim_never_compromised () =
  let plan =
    [
      Chaos.Lying_reporters
        { reporters = [| 2; 5 |]; victim = 7; corroboration = 1.; start = 0.; duration = 1000. };
    ]
  in
  let s = compile plan in
  check (Alcotest.array Alcotest.int) "victims recorded" [| 7 |] (Strategy.victims s);
  check Alcotest.bool "victim is not compromised" false (Strategy.is_compromised s 7);
  check Alcotest.bool "reporters are" true
    (Strategy.is_compromised s 2 && Strategy.is_compromised s 5)

let test_biased_samplers_exposed () =
  let plan =
    [ Chaos.Biased_sampling { samplers = [| 3; 8 |]; favored = 1; start = 0.; duration = 1000. } ]
  in
  let s = compile plan in
  check (Alcotest.array Alcotest.int) "samplers listed" [| 3; 8 |]
    (Strategy.biased_samplers s);
  let taps = Strategy.taps s in
  (* A sampler's advertised peer set is rewritten toward the favored node;
     an honest node's is left alone. *)
  let honest = taps.Protocol.tap_advertised_peers ~time:500. ~node:0 [| 1; 2; 3 |] in
  check Alcotest.bool "honest advert untouched" true (honest = None);
  match taps.Protocol.tap_advertised_peers ~time:500. ~node:3 [| 0; 2; 5 |] with
  | Some rewritten ->
      check Alcotest.bool "favored injected" true (Array.exists (fun p -> p = 1) rewritten)
  | None -> Alcotest.fail "sampler advert not rewritten"

(* ---------- Targeted builders ---------- *)

let test_targeted_route_and_collusion () =
  let world = Lazy.force world_fixture in
  match Strategy.targeted_route ~world ~rng:(Prng.of_seed 11L) ~min_hops:3 with
  | None -> Alcotest.fail "tiny world should yield a 3-hop route"
  | Some (sender, _dest, route) -> (
      check Alcotest.bool "route starts at sender" true (List.hd route = sender);
      check Alcotest.bool "route long enough" true (List.length route >= 3);
      match
        Strategy.collusion_against_route ~world ~route ~size:3 ~drop_probability:1.
          ~corroboration:1. ~start:0. ~duration:1000.
      with
      | Some (Chaos.Collusion { members; _ }) ->
          let dropper = List.nth route 1 in
          check Alcotest.bool "dropper leads the coalition" true
            (Array.exists (fun m -> m = dropper) members)
      | Some _ -> Alcotest.fail "expected a collusion clause"
      | None -> Alcotest.fail "no coalition built")

let test_gap_and_coverage_probes_total () =
  (* The route probes are total over sampled routes (never raise) and
     coverage is non-negative; a too-short route has neither. *)
  let world = Lazy.force world_fixture in
  check Alcotest.bool "short route has no gap" false
    (Strategy.self_exculpation_gap ~world ~route:[ 0; 1 ]);
  check Alcotest.int "short route covers nothing" 0
    (Strategy.coalition_coverage ~world ~route:[ 0; 1 ]);
  match Strategy.targeted_route ~world ~rng:(Prng.of_seed 13L) ~min_hops:3 with
  | None -> Alcotest.fail "tiny world should yield a route"
  | Some (_, _, route) ->
      ignore (Strategy.self_exculpation_gap ~world ~route);
      check Alcotest.bool "coverage non-negative" true
        (Strategy.coalition_coverage ~world ~route >= 0)

(* ---------- Plan sampling ---------- *)

let test_sample_adversaries_deterministic () =
  let sample () =
    Chaos.sample_adversaries ~rng:(Prng.of_seed 21L) ~nodes:50 ~horizon:7200. ()
  in
  let a = sample () and b = sample () in
  check Alcotest.bool "equal seeds, equal plans" true (a = b);
  check Alcotest.bool "soak pressure yields campaigns" true (List.length a > 0);
  let counted = List.fold_left (fun acc (_, n) -> acc + n) 0 (Chaos.adversary_counts a) in
  check Alcotest.int "histogram accounts for every campaign" (List.length a) counted

let test_too_few_nodes_is_empty () =
  let plan = Chaos.sample_adversaries ~rng:(Prng.of_seed 22L) ~nodes:1 ~horizon:7200. () in
  check (Alcotest.list Alcotest.string) "empty plan" []
    (List.map (fun _ -> "campaign") plan)

let suites =
  [
    ( "adversary.soak_invariants",
      [
        Alcotest.test_case "benign passes" `Quick test_soak_benign_passes;
        Alcotest.test_case "each violation fails" `Quick test_soak_each_violation_fails;
        Alcotest.test_case "detection contract" `Quick test_soak_detection_contract;
        Alcotest.test_case "exit code" `Quick test_soak_exit_code;
      ] );
    ( "adversary.strategy",
      [
        Alcotest.test_case "empty plan is identity" `Quick test_empty_plan_is_identity;
        Alcotest.test_case "collusion membership and window" `Quick
          test_collusion_membership_and_window;
        Alcotest.test_case "forgeries bounded by forest" `Quick
          test_forged_reports_bounded_by_forest;
        Alcotest.test_case "compilation deterministic" `Quick test_compile_deterministic;
        Alcotest.test_case "lying victim never compromised" `Quick
          test_lying_victim_never_compromised;
        Alcotest.test_case "biased samplers exposed" `Quick test_biased_samplers_exposed;
      ] );
    ( "adversary.targeted",
      [
        Alcotest.test_case "route-aimed coalition" `Quick test_targeted_route_and_collusion;
        Alcotest.test_case "gap and coverage probes" `Quick
          test_gap_and_coverage_probes_total;
      ] );
    ( "adversary.sampling",
      [
        Alcotest.test_case "deterministic plans" `Quick test_sample_adversaries_deterministic;
        Alcotest.test_case "one node, empty plan" `Quick test_too_few_nodes_is_empty;
      ] );
  ]
