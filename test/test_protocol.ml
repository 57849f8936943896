(* Integration tests: the full protocol stack over a tiny world. *)

module World = Concilium_core.World
module Protocol = Concilium_core.Protocol
module Stewardship = Concilium_core.Stewardship
module Accusation = Concilium_core.Accusation
module Engine = Concilium_netsim.Engine
module Link_state = Concilium_netsim.Link_state
module Graph = Concilium_topology.Graph
module Id = Concilium_overlay.Id
module Signed = Concilium_crypto.Signed
module Prng = Concilium_util.Prng

let check = Alcotest.check

let world_fixture = lazy (World.build (World.tiny_config ~seed:321L))

type session = {
  world : World.t;
  engine : Engine.t;
  link_state : Link_state.t;
  protocol : Protocol.t;
}

let make_session ?(behavior = fun _ -> Protocol.Honest) ?(seed = 5L) ?(bad_loss = 1.) ?taps () =
  let world = Lazy.force world_fixture in
  let engine = Engine.create () in
  let graph = world.World.generated.World.Generate.graph in
  let link_state = Link_state.create ~link_count:(Graph.link_count graph) ~good_loss:0. ~bad_loss in
  let protocol =
    Protocol.create ~world ~engine ~link_state ~rng:(Prng.of_seed seed) ?taps
      Protocol.default_config ~behavior
  in
  { world; engine; link_state; protocol }

let warm_up session =
  Protocol.start_probing session.protocol ~horizon:600.;
  Engine.run_until session.engine 600.

let route_with_intermediate session =
  (* Find a sender and destination whose overlay route has >= 3 hops so a
     middle forwarder exists. *)
  let world = session.world in
  let n = World.node_count world in
  let rng = Prng.of_seed 17L in
  let rec search attempts =
    if attempts = 0 then Alcotest.fail "no multi-hop route found"
    else begin
      let from = Prng.int rng n in
      let dest = Id.random rng in
      let route = World.overlay_route world ~from ~dest in
      if List.length route >= 3 then (from, dest, route) else search (attempts - 1)
    end
  in
  search 5000

let test_healthy_delivery () =
  let session = make_session () in
  warm_up session;
  let from, dest, _ = route_with_intermediate session in
  let delivered = ref false in
  Protocol.send_message session.protocol ~from ~dest ~payload:"hello"
    ~on_outcome:(fun outcome ->
      delivered := outcome.Protocol.delivered;
      check Alcotest.bool "no diagnosis when delivered" true
        (outcome.Protocol.diagnosis = None));
  Engine.run_until session.engine 1200.;
  check Alcotest.bool "delivered" true !delivered

let test_dropper_blamed () =
  let world = Lazy.force world_fixture in
  ignore world;
  let session0 = make_session () in
  let from, dest, route = route_with_intermediate session0 in
  let culprit = List.nth route 1 in
  let behavior v =
    if v = culprit then Protocol.Message_dropper 1.0 else Protocol.Honest
  in
  let session = make_session ~behavior () in
  warm_up session;
  let outcome_seen = ref None in
  Protocol.send_message session.protocol ~from ~dest ~payload:"x"
    ~on_outcome:(fun outcome -> outcome_seen := Some outcome);
  Engine.run_until session.engine 1200.;
  match !outcome_seen with
  | None -> Alcotest.fail "no outcome"
  | Some outcome ->
      check Alcotest.bool "not delivered" false outcome.Protocol.delivered;
      check Alcotest.bool "ground truth is the dropper" true
        (outcome.Protocol.drop = Some (Protocol.Dropped_by_overlay culprit));
      (* The first attempt and both retransmits. *)
      check Alcotest.int "all retransmits consumed" 3 outcome.Protocol.attempts;
      (match outcome.Protocol.diagnosis with
      | Some (Protocol.Diagnosed { Stewardship.final = Some (Stewardship.Next_hop blamed); _ })
        ->
          check Alcotest.int "dropper blamed" culprit blamed
      | _ -> Alcotest.fail "expected a node-level diagnosis")

let test_bad_link_blames_network () =
  let session0 = make_session () in
  let from, dest, route = route_with_intermediate session0 in
  let hop1 = List.nth route 1 and hop2 = List.nth route 2 in
  let session = make_session () in
  (* Fail every link of the hop1 -> hop2 IP path for the whole run, well
     before probing starts, so tomography sees it consistently down. *)
  let path = Option.get (World.ip_path session.world ~from_node:hop1 ~to_node:hop2) in
  Array.iter (fun link -> Link_state.set_bad session.link_state link) path.World.Routes.links;
  warm_up session;
  let outcome_seen = ref None in
  Protocol.send_message session.protocol ~from ~dest ~payload:"x"
    ~on_outcome:(fun outcome -> outcome_seen := Some outcome);
  Engine.run_until session.engine 1200.;
  match !outcome_seen with
  | None -> Alcotest.fail "no outcome"
  | Some outcome ->
      check Alcotest.bool "not delivered" false outcome.Protocol.delivered;
      (match outcome.Protocol.diagnosis with
      | Some (Protocol.Diagnosed { Stewardship.final = Some Stewardship.Network; _ }) -> ()
      | Some (Protocol.Diagnosed { Stewardship.final = Some (Stewardship.Next_hop blamed); _ })
        ->
          Alcotest.failf "blamed node %d instead of the network" blamed
      | _ -> Alcotest.fail "expected a diagnosis")

let test_repeated_drops_trigger_accusation () =
  let session0 = make_session () in
  let from, dest, route = route_with_intermediate session0 in
  let culprit = List.nth route 1 in
  let behavior v =
    if v = culprit then Protocol.Message_dropper 1.0 else Protocol.Honest
  in
  let session = make_session ~behavior () in
  Protocol.start_probing session.protocol ~horizon:4000.;
  Engine.run_until session.engine 600.;
  (* The judge (previous hop) needs Accusation.m guilty verdicts. *)
  let judge = List.hd route in
  for i = 1 to 8 do
    Engine.schedule_at session.engine
      ~time:(600. +. (200. *. float_of_int i))
      (fun _ ->
        Protocol.send_message session.protocol ~from ~dest ~payload:"x"
          ~on_outcome:(fun _ -> ()))
  done;
  Engine.run_until session.engine 4000.;
  check Alcotest.bool "guilty verdicts accumulated" true
    (Protocol.guilty_count session.protocol ~judge ~suspect:culprit >= Accusation.m);
  let accusations = Protocol.fetch_accusations session.protocol ~from:judge ~accused:culprit in
  check Alcotest.bool "formal accusation in DHT" true (List.length accusations >= 1);
  List.iter
    (fun accusation ->
      check Alcotest.bool "self-verifying" true
        (Accusation.verify session.world.World.pki accusation = Ok ());
      check Alcotest.string "names the culprit"
        (Id.to_hex (World.id_of session.world culprit))
        (Id.to_hex (Signed.payload accusation).Accusation.accused);
      check Alcotest.int "carries m - 1 supporting pieces" (Accusation.m - 1)
        (List.length (Signed.payload accusation).Accusation.supporting))
    accusations;
  (* Re-filings replace the accuser's record: one accusation per accuser. *)
  let accusers =
    List.map (fun a -> Id.to_hex (Signed.payload a).Accusation.accuser) accusations
  in
  check Alcotest.int "one accusation per accuser" (List.length accusers)
    (List.length (List.sort_uniq String.compare accusers))

let test_commitment_refuser_flagged () =
  (* A Section 3.6 adversary: receives the message, issues no commitment,
     and drops it. Concilium cannot prove culpability, but it flags the
     hop for the complementary reputation system. *)
  let session0 = make_session () in
  let from, dest, route = route_with_intermediate session0 in
  let refuser = List.nth route 1 in
  let behavior v = if v = refuser then Protocol.Silent_dropper else Protocol.Honest in
  let session = make_session ~behavior () in
  warm_up session;
  let outcome_seen = ref None in
  Protocol.send_message session.protocol ~from ~dest ~payload:"x"
    ~on_outcome:(fun outcome -> outcome_seen := Some outcome);
  Engine.run_until session.engine 1200.;
  match !outcome_seen with
  | None -> Alcotest.fail "no outcome"
  | Some outcome ->
      check Alcotest.bool "not delivered" false outcome.Protocol.delivered;
      check (Alcotest.option Alcotest.int) "refuser flagged for the reputation system"
        (Some refuser) outcome.Protocol.no_commitment_from;
      (* Without a commitment no formal accusation may name the refuser. *)
      check Alcotest.int "no accusation possible" 0
        (List.length
           (Protocol.fetch_accusations session.protocol ~from:(List.hd route)
              ~accused:refuser))


let test_churned_hop_flagged_not_accused () =
  (* The middle hop is offline for the whole run: it issues no commitment,
     so Concilium cannot formally accuse it -- exactly the Section 3.6
     boundary -- but the sender learns which hop to distrust. *)
  let session0 = make_session () in
  let from, dest, route = route_with_intermediate session0 in
  let offline = List.nth route 1 in
  let world = Lazy.force world_fixture in
  let engine = Engine.create () in
  let graph = world.World.generated.World.Generate.graph in
  let link_state =
    Link_state.create ~link_count:(Graph.link_count graph) ~good_loss:0. ~bad_loss:1.
  in
  let availability ~time:_ v = v <> offline in
  let protocol =
    Protocol.create ~world ~engine ~link_state ~rng:(Prng.of_seed 5L) ~availability
      Protocol.default_config
      ~behavior:(fun _ -> Protocol.Honest)
  in
  Protocol.start_probing protocol ~horizon:600.;
  Engine.run_until engine 600.;
  let outcome_seen = ref None in
  Protocol.send_message protocol ~from ~dest ~payload:"x"
    ~on_outcome:(fun outcome -> outcome_seen := Some outcome);
  Engine.run_until engine 1200.;
  match !outcome_seen with
  | None -> Alcotest.fail "no outcome"
  | Some outcome ->
      check Alcotest.bool "not delivered" false outcome.Protocol.delivered;
      check Alcotest.bool "ground truth: hop offline" true
        (outcome.Protocol.drop = Some (Protocol.Hop_offline offline));
      check (Alcotest.option Alcotest.int) "flagged without commitment" (Some offline)
        outcome.Protocol.no_commitment_from;
      (match outcome.Protocol.diagnosis with
      | Some (Protocol.Diagnosed { Stewardship.final = Some (Stewardship.Offline v); _ }) ->
          check Alcotest.int "offline hop identified, nobody blamed" offline v
      | _ -> Alcotest.fail "expected an Offline diagnosis");
      (* Absence is not misbehaviour: the judge's window for the offline
         hop must stay empty. *)
      check Alcotest.int "no verdict window charged" 0
        (Protocol.guilty_count protocol ~judge:from ~suspect:offline)


let test_control_bandwidth_accounted () =
  let session = make_session () in
  check Alcotest.int "no traffic before probing" 0
    (Protocol.control_bytes_sent session.protocol 0);
  warm_up session;
  check Alcotest.bool "probing consumed bandwidth" true
    (Protocol.control_bytes_sent session.protocol 0 > 0);
  let rate = Protocol.mean_control_bytes_per_second session.protocol ~horizon:600. in
  (* Lightweight probing + diffs should stay modest: well under the cost of
     re-advertising a full table each minute. *)
  check Alcotest.bool (Printf.sprintf "mean control rate %.0f B/s sane" rate) true
    (rate > 0. && rate < 100_000.)

let test_heavyweight_burst_improves_evidence () =
  (* Lightweight probing never starts, so the heavyweight burst triggered
     by the drop is the only source of evidence -- the diagnosis must still
     exonerate the forwarder when its egress path is genuinely dead. *)
  let session0 = make_session () in
  let from, dest, route = route_with_intermediate session0 in
  let hop1 = List.nth route 1 and hop2 = List.nth route 2 in
  let world = Lazy.force world_fixture in
  let engine = Engine.create () in
  let graph = world.World.generated.World.Generate.graph in
  let link_state =
    Link_state.create ~link_count:(Graph.link_count graph) ~good_loss:0. ~bad_loss:1.
  in
  let protocol =
    Protocol.create ~world ~engine ~link_state ~rng:(Prng.of_seed 5L) Protocol.default_config
      ~behavior:(fun _ -> Protocol.Honest)
  in
  let path = Option.get (World.ip_path world ~from_node:hop1 ~to_node:hop2) in
  Array.iter (fun link -> Link_state.set_bad link_state link) path.World.Routes.links;
  let outcome_seen = ref None in
  Protocol.send_message protocol ~from ~dest ~payload:"x"
    ~on_outcome:(fun outcome -> outcome_seen := Some outcome);
  Engine.run_until engine 600.;
  match !outcome_seen with
  | None -> Alcotest.fail "no outcome"
  | Some outcome -> (
      check Alcotest.bool "not delivered" false outcome.Protocol.delivered;
      match outcome.Protocol.diagnosis with
      | Some (Protocol.Diagnosed { Stewardship.final = Some Stewardship.Network; _ }) -> ()
      | Some (Protocol.Diagnosed { Stewardship.final = Some (Stewardship.Next_hop blamed); _ })
        ->
          Alcotest.failf "blamed node %d despite heavyweight evidence" blamed
      | _ -> Alcotest.fail "expected a diagnosis")


let test_sparse_advertiser_caught () =
  (* Section 3.1 in the runtime: an attacker advertising half its routing
     state is flagged by its peers' density tests; honest advertisements
     pass. *)
  let session0 = make_session () in
  let _, _, route = route_with_intermediate session0 in
  let attacker = List.nth route 1 in
  let behavior v =
    if v = attacker then Protocol.Sparse_advertiser 0.35 else Protocol.Honest
  in
  let session = make_session ~behavior () in
  let reports = Protocol.exchange_advertisements session.protocol in
  let flagged =
    List.sort_uniq Int.compare
      (List.map (fun r -> r.Protocol.advertiser) reports)
  in
  check Alcotest.bool
    (Printf.sprintf "attacker %d among flagged %s" attacker
       (String.concat "," (List.map string_of_int flagged)))
    true (List.mem attacker flagged);
  (* The density tests have false positives by design, but the attacker
     must be flagged by (nearly) every validating peer, unlike honest
     nodes. *)
  let flags_for v =
    List.length (List.filter (fun r -> r.Protocol.advertiser = v) reports)
  in
  let honest_max =
    List.fold_left
      (fun acc v -> if v = attacker then acc else max acc (flags_for v))
      0
      (List.init (World.node_count session.world) Fun.id)
  in
  check Alcotest.bool
    (Printf.sprintf "attacker flagged %d times > any honest node (%d)" (flags_for attacker)
       honest_max)
    true
    (flags_for attacker > honest_max)

let send_one session ~from ~dest =
  let outcome_seen = ref None in
  Protocol.send_message session.protocol ~from ~dest ~payload:"x"
    ~on_outcome:(fun outcome -> outcome_seen := Some outcome);
  Engine.run_until session.engine 1200.;
  match !outcome_seen with None -> Alcotest.fail "no outcome" | Some outcome -> outcome

let test_unreachable_spliced_hop () =
  (* The tap_route contract: a rewritten route whose consecutive hops are
     IP-unreachable kills the message as an overlay drop at the hop that
     cannot reach its successor. Splice a node z that route hop x has no
     IP path to right after x: x forwards, nothing arrives, z never
     commits, and x's upstream judge, holding x's commitment and no
     evidence against any egress path, blames x. *)
  let session0 = make_session () in
  let from, dest, route = route_with_intermediate session0 in
  let world = session0.world in
  let x = List.nth route 1 in
  let unreachable v =
    (not (List.mem v route)) && Option.is_none (World.ip_path world ~from_node:x ~to_node:v)
  in
  let z =
    match List.find_opt unreachable (List.init (World.node_count world) Fun.id) with
    | Some z -> z
    | None -> Alcotest.fail "every node is reachable from x"
  in
  let spliced = List.concat_map (fun hop -> if hop = x then [ x; z ] else [ hop ]) route in
  let taps =
    { Protocol.no_taps with tap_route = (fun ~time:_ ~from:_ ~dest:_ _ -> Some spliced) }
  in
  let session = make_session ~taps () in
  warm_up session;
  let outcome = send_one session ~from ~dest in
  check Alcotest.(list int) "the rewritten route is reported" spliced outcome.Protocol.route;
  check Alcotest.bool "not delivered" false outcome.Protocol.delivered;
  check Alcotest.int "all retransmits consumed" 3 outcome.Protocol.attempts;
  check Alcotest.bool "overlay drop at x" true
    (outcome.Protocol.drop = Some (Protocol.Dropped_by_overlay x));
  check (Alcotest.option Alcotest.int) "z flagged without commitment" (Some z)
    outcome.Protocol.no_commitment_from;
  match outcome.Protocol.diagnosis with
  | Some (Protocol.Diagnosed { Stewardship.final = Some (Stewardship.Next_hop blamed); _ }) ->
      check Alcotest.int "x blamed" x blamed
  | _ -> Alcotest.fail "expected a node-level diagnosis"

let test_lost_ack_diagnosed () =
  (* The ack retraces the forward IP paths in reverse. With the first link
     of the last hop's path losing half its packets, the final attempt at
     this seed reaches the destination and loses the ack on that link. *)
  let session = make_session ~seed:1L ~bad_loss:0.5 () in
  let from, dest, route = route_with_intermediate session in
  let last_hop = List.length route - 2 in
  let path =
    Option.get
      (World.ip_path session.world ~from_node:(List.nth route last_hop)
         ~to_node:(List.nth route (last_hop + 1)))
  in
  let links = path.World.Routes.links in
  Link_state.set_bad session.link_state links.(0);
  warm_up session;
  let outcome = send_one session ~from ~dest in
  (match outcome.Protocol.drop with
  | Some (Protocol.Ack_lost_on_link link) ->
      check Alcotest.bool "lost on the last hop's path" true (Array.mem link links)
  | _ -> Alcotest.fail "expected a lost ack");
  check Alcotest.int "all retransmits consumed" 3 outcome.Protocol.attempts;
  match outcome.Protocol.diagnosis with
  | Some (Protocol.Diagnosed _) -> ()
  | _ -> Alcotest.fail "expected a diagnosis"

let test_pending_judgments_hold_horizon () =
  (* A control delay of 500 s (more than 2 Delta) stretches both of a
     message's retransmit backoffs and then holds its judgment back: a
     message sent at t is dropped for good at t + 1003 s (1 + 500 and
     2 + 500 s of backoff) and judged at t + 1563 s. The store's horizon
     must wait for the oldest pending drop, or that judgment's window
     would start behind it and the store's guard would raise. Messages go
     out every Delta/2 for the first 10 Delta, so the drops fall in
     [16.7, 26.7] Delta and the judgments in [26, 36] Delta. At 26 Delta,
     with every judgment still pending, the store keeps the ~10 Delta
     since the oldest drop; by 40 Delta every judgment has run and the
     store is back to a Delta or two of history. *)
  let session0 = make_session () in
  let from, dest, route = route_with_intermediate session0 in
  let culprit = List.nth route 1 in
  let world = Lazy.force world_fixture in
  let engine = Engine.create () in
  let graph = world.World.generated.World.Generate.graph in
  let link_state =
    Link_state.create ~link_count:(Graph.link_count graph) ~good_loss:0. ~bad_loss:1.
  in
  let protocol =
    Protocol.create ~world ~engine ~link_state ~rng:(Prng.of_seed 5L)
      ~control_latency:(fun ~time:_ -> 500.)
      Protocol.default_config
      ~behavior:(fun v -> if v = culprit then Protocol.Message_dropper 1.0 else Protocol.Honest)
  in
  let delta = Protocol.default_config.Protocol.blame.Concilium_core.Blame.delta in
  let count_at k =
    Engine.run_until engine (k *. delta);
    Concilium_tomography.Observation.count (Protocol.observations protocol)
  in
  Protocol.start_probing protocol ~horizon:(40. *. delta);
  let sent = ref 0 and diagnosed = ref 0 in
  let rec send engine =
    incr sent;
    Protocol.send_message protocol ~from ~dest ~payload:"x" ~on_outcome:(fun outcome ->
        match outcome.Protocol.diagnosis with
        | Some (Protocol.Diagnosed _) -> incr diagnosed
        | Some (Protocol.Insufficient_evidence _) | None -> ());
    if Engine.now engine +. (delta /. 2.) < 10. *. delta then
      Engine.schedule engine ~delay:(delta /. 2.) send
  in
  Engine.schedule engine ~delay:1. send;
  let held = count_at 26. in
  let late = count_at 40. in
  check Alcotest.int "every drop diagnosed" !sent !diagnosed;
  check Alcotest.bool
    (Printf.sprintf "store pruned once judged: %d live at 40 Delta vs %d at 26 Delta" late held)
    true
    (3 * late < held)

(* A light round lives in the runtime's buffers and the store's rings, so
   probing allocates about the same few words per engine step whatever the
   tree: the engine's event record and its boxed time, the boxed probe
   delay, and the rings' amortised growth at prunes. The small world probing
   with no traffic measured 15.68 words per step; the bound leaves about 4
   words of margin, so one small array or a few boxes per round, or
   anything per vote, fails. The count is a function of the code and the
   seed, not of the host. *)
let test_light_probing_allocation () =
  let world = World.build (World.small_config ~seed:1907L) in
  let engine = Engine.create () in
  let graph = world.World.generated.World.Generate.graph in
  let link_state =
    Link_state.create ~link_count:(Graph.link_count graph) ~good_loss:0.001 ~bad_loss:0.9
  in
  let protocol =
    Protocol.create ~world ~engine ~link_state ~rng:(Prng.of_seed 3L) Protocol.default_config
      ~behavior:(fun _ -> Protocol.Honest)
  in
  Protocol.start_probing protocol ~horizon:1e9;
  let steps n =
    for _ = 1 to n do
      if not (Engine.step engine) then Alcotest.fail "probing stopped"
    done
  in
  steps 20_000;
  let before = Gc.minor_words () in
  steps 50_000;
  let per_step = (Gc.minor_words () -. before) /. 50_000. in
  check Alcotest.bool (Printf.sprintf "%.2f minor words per step, bound 20" per_step) true
    (per_step <= 20.)

let suites =
  [
    ( "protocol.integration",
      [
        Alcotest.test_case "healthy delivery" `Quick test_healthy_delivery;
        Alcotest.test_case "dropper identified by stewardship" `Quick test_dropper_blamed;
        Alcotest.test_case "bad IP link exonerates the forwarder" `Quick
          test_bad_link_blames_network;
        Alcotest.test_case "repeated drops escalate to a DHT accusation" `Quick
          test_repeated_drops_trigger_accusation;
        Alcotest.test_case "commitment refuser flagged" `Quick test_commitment_refuser_flagged;
        Alcotest.test_case "churned-out hop flagged, not accused" `Quick
          test_churned_hop_flagged_not_accused;
        Alcotest.test_case "control bandwidth accounted" `Quick
          test_control_bandwidth_accounted;
        Alcotest.test_case "heavyweight burst carries the diagnosis" `Quick
          test_heavyweight_burst_improves_evidence;
        Alcotest.test_case "sparse advertiser caught by density tests" `Quick
          test_sparse_advertiser_caught;
        Alcotest.test_case "pending judgments hold the horizon back" `Quick
          test_pending_judgments_hold_horizon;
        Alcotest.test_case "unreachable spliced hop is an overlay drop" `Quick
          test_unreachable_spliced_hop;
        Alcotest.test_case "lost ack is diagnosed" `Quick test_lost_ack_diagnosed;
        Alcotest.test_case "light probing allocates a few words a step" `Quick
          test_light_probing_allocation;
      ] );
  ]
