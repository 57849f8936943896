(* Seeded chaos soak runner: execute a matrix of fault and adversary
   scenarios over the full protocol runtime and check machine-readable
   invariants --

     - no scenario raises an uncaught exception;
     - every message produces an outcome before the engine drains;
     - every undelivered message ends in a stewardship resolution or an
       explicit Insufficient_evidence degradation;
     - honest nodes incur zero formal accusations;
     - detection scenarios additionally assert their adversary both acted
       and was caught (see Concilium_adversary.Soak_invariants).

   The transcript (stdout) is deterministic JSON: scenario plans (faults
   and adversary campaigns alike) are sampled from pre-split PRNGs before
   any parallel fan-out, so the bytes are identical for any --domains
   value. CI diffs --domains 1 vs 2, and additionally re-runs detection
   scenarios with one defense disabled (--disable-defense NAME
   --expect-failure): a canary run that passes anyway fails the job. *)

module World = Concilium_core.World
module Protocol = Concilium_core.Protocol
module Stewardship = Concilium_core.Stewardship
module Dht = Concilium_core.Dht
module Engine = Concilium_netsim.Engine
module Link_state = Concilium_netsim.Link_state
module Chaos = Concilium_netsim.Chaos
module Churn = Concilium_netsim.Churn
module Graph = Concilium_topology.Graph
module Routes = Concilium_topology.Routes
module Id = Concilium_overlay.Id
module Prng = Concilium_util.Prng
module Pool = Concilium_util.Pool
module Json = Concilium_util.Json
module Collector = Concilium_obs.Collector
module Trace = Concilium_obs.Trace
module Metrics = Concilium_obs.Metrics
module Export = Concilium_obs.Export
module Flight = Concilium_obs.Flight
module Timeseries = Concilium_obs.Timeseries
module Prov_graph = Concilium_provenance.Graph
module Validation = Concilium_core.Validation
module Strategy = Concilium_adversary.Strategy
module Soak = Concilium_adversary.Soak_invariants

type adversary_spec =
  | No_adversary
  | Sampled
      (* background pressure: campaigns drawn uniformly; no detection
         assertion since a sampled coalition may never touch a route *)
  | Targeted_collusion of { size : int; drop_probability : float; corroboration : float }
  | Targeted_lying of { size : int; corroboration : float }
  | Targeted_eclipse of { size : int }
  | Targeted_biased of { size : int; keep_fraction : float }

type scenario = {
  name : string;
  chaos : Chaos.config;
  dropper_fraction : float;
  drop_probability : float;
  churn : bool;
  messages : int;
  duration : float;
  adversary : adversary_spec;
  require_detection : bool;
}

let base ~name ~chaos =
  {
    name;
    chaos;
    dropper_fraction = 0.;
    drop_probability = 0.;
    churn = false;
    messages = 30;
    duration = 3600.;
    adversary = No_adversary;
    require_detection = false;
  }

let small_matrix =
  [
    base ~name:"quiet" ~chaos:Chaos.quiet;
    base ~name:"flaps"
      ~chaos:
        {
          Chaos.quiet with
          Chaos.link_flaps_per_hour = 8.;
          flap_mean_duration = 150.;
          bursts_per_hour = 2.;
          burst_width = 3;
          burst_mean_duration = 180.;
        };
    base ~name:"partition"
      ~chaos:
        {
          Chaos.quiet with
          Chaos.partitions_per_hour = 1.5;
          partition_mean_duration = 240.;
          link_flaps_per_hour = 4.;
          flap_mean_duration = 120.;
        };
    base ~name:"crashes"
      ~chaos:
        {
          Chaos.quiet with
          Chaos.crashes_per_hour = 4.;
          crash_mean_duration = 240.;
          replica_losses_per_hour = 2.;
        };
    base ~name:"control-plane"
      ~chaos:
        {
          Chaos.quiet with
          Chaos.delays_per_hour = 3.;
          delay_mean_duration = 400.;
          delay_extra = 8.;
          duplications_per_hour = 3.;
          duplication_mean_duration = 400.;
          duplication_copies = 3;
        };
    {
      (base ~name:"mixed" ~chaos:Chaos.default_config) with
      dropper_fraction = 0.1;
      drop_probability = 0.8;
      churn = true;
    };
  ]

(* Detection scenarios: each aims a compiled strategy at a concrete route
   and asserts the runtime's defenses catch (or withstand) it. The three
   single-knob canaries in CI re-run these with --disable-defense, and the
   scenario each one fails is:
     collusion      <-> suspect-exclusion (Section 3.4 self-exculpation)
     lying-reporter <-> vote-dedup (stuffed forged ballots frame the victim)
     biased-join    <-> density-validation (Section 3.1 occupancy test)
   With defenses on, lying-reporter asserts framing never sticks. *)
let adversarial_matrix =
  [
    {
      (base ~name:"collusion" ~chaos:Chaos.quiet) with
      adversary =
        Targeted_collusion { size = 3; drop_probability = 1.0; corroboration = 1.0 };
      require_detection = true;
      messages = 40;
    };
    {
      (base ~name:"lying-reporter" ~chaos:Chaos.quiet) with
      adversary = Targeted_lying { size = 3; corroboration = 1.0 };
      require_detection = true;
      messages = 40;
    };
    {
      (base ~name:"eclipse" ~chaos:Chaos.quiet) with
      adversary = Targeted_eclipse { size = 3 };
      require_detection = true;
      messages = 40;
    };
    {
      (base ~name:"biased-join" ~chaos:Chaos.quiet) with
      adversary = Targeted_biased { size = 3; keep_fraction = 0.4 };
      require_detection = true;
    };
    {
      (base ~name:"adversary-pressure"
         ~chaos:
           { Chaos.quiet with Chaos.link_flaps_per_hour = 4.; flap_mean_duration = 120. })
      with
      adversary = Sampled;
    };
  ]

let full_matrix =
  small_matrix
  @ [
      { (base ~name:"paper-intensity" ~chaos:Chaos.paper_rates) with messages = 60 };
      {
        (base ~name:"everything" ~chaos:Chaos.paper_rates) with
        dropper_fraction = 0.15;
        drop_probability = 0.9;
        churn = true;
        messages = 60;
        duration = 5400.;
      };
    ]
  @ adversarial_matrix

(* ---------- Defense toggles ---------- *)

type defense = Suspect_exclusion | Vote_dedup | Density_validation

let defense_name = function
  | Suspect_exclusion -> "suspect-exclusion"
  | Vote_dedup -> "vote-dedup"
  | Density_validation -> "density-validation"

let apply_disabled config = function
  | None -> config
  | Some Suspect_exclusion -> { config with Protocol.exclude_suspect_probes = false }
  | Some Vote_dedup -> { config with Protocol.one_vote_per_prober = false }
  | Some Density_validation -> { config with Protocol.validation_gamma_jump = infinity }

(* ---------- One scenario run ---------- *)

type tally = {
  mutable delivered : int;
  mutable retransmitted : int;  (* delivered or not, needed > 1 attempt *)
  mutable diagnosed_node : int;
  mutable diagnosed_network : int;
  mutable diagnosed_offline : int;
  mutable diagnosed_none : int;  (* resolution with no final target *)
  mutable degraded : int;  (* explicit Insufficient_evidence *)
  mutable unresolved : int;  (* undelivered without any diagnosis: violation *)
  mutable missing : int;  (* no outcome at all: violation *)
  mutable flagged_no_commitment : int;
}

type tap_counts = {
  forced_drops : int;
  lies : int;
  route_rewrites : int;
  advert_rewrites : int;
  forged_reports : int;
}

type adversary_tally = {
  mutable adversary_blamed : int;  (* episodes settling on a compromised node *)
  mutable victim_blamed : int;  (* episodes settling on a framing/eclipse victim *)
  mutable compromised_accusations : int;  (* durable accusations naming colluders *)
  mutable advert_flagged : int;  (* failed validations naming a biased sampler *)
}

type run_result = {
  scenario : scenario;
  faults : (string * int) list;
  adversaries : (string * int) list;
  tally : tally;
  taps : tap_counts;
  adv : adversary_tally;
  adversary_present : bool;
  adversary_detected : bool;
  honest_accusations : int;
  dht_failover_times : float list;
      (* engine times at which a DHT put succeeded by failing over past a
         dead root replica, from the scenario's trace *)
  failure : string option;  (* uncaught exception, if any *)
}

(* A cut that separates the low-index half of the overlay from the
   high-index half: links used by some cross-side peer path but by no
   same-side one. *)
let build_cuts world =
  let n = World.node_count world in
  let side v = v < n / 2 in
  let paths = ref [] in
  Array.iteri
    (fun v peers ->
      Array.iteri
        (fun i peer ->
          match world.World.peer_paths.(v).(i) with
          | Some path -> paths := (side v, side peer, path.Routes.links) :: !paths
          | None -> ())
        peers)
    world.World.peers;
  let cut = Chaos.cut_of_paths ~paths:(List.rev !paths) in
  if Array.length cut = 0 then [||] else [| cut |]

let mask_of_nodes node_count nodes =
  let mask = Array.make node_count false in
  Array.iter (fun v -> if v >= 0 && v < node_count then mask.(v) <- true) nodes;
  mask

(* The five adversary tap firings, as Protocol counts them in the
   scenario's metrics registry (chaos collectors always record): they feed
   both the transcript and the adversary-inert invariant. *)
let tap_counts metrics =
  let count name = Metrics.counter metrics ("adversary." ^ name) in
  {
    forced_drops = count "forced_drops";
    lies = count "lies";
    route_rewrites = count "route_rewrites";
    advert_rewrites = count "advert_rewrites";
    forged_reports = count "forged_reports";
  }

let run_scenario ~seed ~index ~rng ~obs ~timeseries ~disable scenario =
  let tally =
    {
      delivered = 0;
      retransmitted = 0;
      diagnosed_node = 0;
      diagnosed_network = 0;
      diagnosed_offline = 0;
      diagnosed_none = 0;
      degraded = 0;
      unresolved = 0;
      missing = 0;
      flagged_no_commitment = 0;
    }
  in
  let adv =
    {
      adversary_blamed = 0;
      victim_blamed = 0;
      compromised_accusations = 0;
      advert_flagged = 0;
    }
  in
  try
    let world_seed = Int64.add seed (Int64.of_int (1009 * (index + 1))) in
    let world = World.build (World.tiny_config ~seed:world_seed) in
    let graph = world.World.generated.World.Generate.graph in
    let node_count = World.node_count world in
    let link_count = Graph.link_count graph in
    let engine = Engine.create () in
    let link_state =
      Link_state.create ~link_count ~good_loss:0.001 ~bad_loss:1.
    in
    let plan =
      Chaos.sample ~rng:(Prng.split rng) ~config:scenario.chaos
        ~links:(Array.init link_count Fun.id) ~nodes:node_count ~cuts:(build_cuts world)
        ~horizon:scenario.duration
    in
    (* Adversary campaigns: either sampled like faults, or aimed at a
       concrete route so detection is deterministic. Campaign windows
       cover the whole run including the judgment flush. *)
    let adv_rng = Prng.split rng in
    let strategy_rng = Prng.split rng in
    let campaign = scenario.duration +. 900. in
    let adversary_plan, framed_links, targeted, sampler_keep =
      match scenario.adversary with
      | No_adversary -> ([], [||], None, None)
      | Sampled ->
          ( Chaos.sample_adversaries ~rng:adv_rng ~nodes:node_count
              ~peers_of:(fun v -> world.World.peers.(v))
              ~horizon:scenario.duration (),
            [||],
            None,
            None )
      | Targeted_collusion { size; drop_probability; corroboration } -> (
          (* Prefer a route with a self-exculpation gap (a dropper egress
             link only the dropper can vouch for to the judge), which the
             suspect-exclusion canary flips. Among such routes, and among
             the rest, prefer more helpers whose probe forests cover the
             judged links (counted up to twice the helper count); stop at
             a gap route with at least one covering helper per helper. *)
          let rec pick trials best best_score =
            if trials = 0 then best
            else begin
              match Strategy.targeted_route ~world ~rng:adv_rng ~min_hops:3 with
              | None -> best
              | Some (from, dest, route) ->
                  let gap = Strategy.self_exculpation_gap ~world ~route in
                  let coverage = Strategy.coalition_coverage ~world ~route in
                  let score =
                    (if gap then 100 else 0) + min coverage (2 * (size - 1))
                  in
                  if gap && coverage >= size - 1 then Some (from, dest, route)
                  else if score > best_score then
                    pick (trials - 1) (Some (from, dest, route)) score
                  else pick (trials - 1) best best_score
            end
          in
          match pick 48 None (-1) with
          | None -> ([], [||], None, None)
          | Some (from, dest, route) -> (
              match
                Strategy.collusion_against_route ~world ~route ~size ~drop_probability
                  ~corroboration ~start:0. ~duration:campaign
              with
              | None -> ([], [||], None, None)
              | Some adversary -> ([ adversary ], [||], Some (from, dest), None)))
      | Targeted_lying { size; corroboration } -> (
          match Strategy.targeted_route ~world ~rng:adv_rng ~min_hops:3 with
          | None -> ([], [||], None, None)
          | Some (from, dest, route) -> (
              match
                Strategy.lying_against_route ~world ~route ~size ~corroboration ~start:0.
                  ~duration:campaign
              with
              | None -> ([], [||], None, None)
              | Some (adversary, egress) -> ([ adversary ], egress, Some (from, dest), None)))
      | Targeted_eclipse { size } -> (
          match Strategy.targeted_route ~world ~rng:adv_rng ~min_hops:3 with
          | None -> ([], [||], None, None)
          | Some (from, dest, route) -> (
              match
                Strategy.eclipse_against_route ~world ~route ~size ~start:0.
                  ~duration:campaign
              with
              | None -> ([], [||], None, None)
              | Some adversary -> ([ adversary ], [||], Some (from, dest), None)))
      | Targeted_biased { size; keep_fraction } ->
          let favored = Prng.int adv_rng node_count in
          let picks =
            Prng.sample_without_replacement adv_rng
              (min size (node_count - 1))
              (node_count - 1)
          in
          let samplers = Array.map (fun v -> if v >= favored then v + 1 else v) picks in
          ( [ Chaos.Biased_sampling { samplers; favored; start = 0.; duration = campaign } ],
            [||],
            None,
            Some keep_fraction )
    in
    (* The framing scenario faults the victim's egress for the whole run:
       the network genuinely drops on the victim's watch, and the liars
       work to pin those drops on the victim itself. *)
    let plan =
      if Array.length framed_links = 0 then plan
      else
        plan
        @ [ Chaos.Burst_loss { links = framed_links; start = 60.; duration = scenario.duration } ]
    in
    let strategy = Strategy.compile ~world ~rng:strategy_rng adversary_plan in
    let taps = Strategy.taps strategy in
    let compromised_mask = mask_of_nodes node_count (Strategy.compromised strategy) in
    let victim_mask = mask_of_nodes node_count (Strategy.victims strategy) in
    let sampler_mask = mask_of_nodes node_count (Strategy.biased_samplers strategy) in
    (* The Dht exists only after Protocol.create; Replica_loss events fire
       later, during the engine run, so a forward reference suffices. *)
    let dht_ref = ref None in
    let chaos =
      Chaos.compile ~obs:obs.Collector.trace
        ~on_replica_loss:(fun ~node ~time:_ ->
          match !dht_ref with Some dht -> Dht.drop_replica dht ~node | None -> ())
        ~engine ~link_state plan
    in
    let churn_timeline =
      if scenario.churn then
        Some
          (Churn.generate ~rng:(Prng.split rng) ~hosts:node_count ~duration:scenario.duration)
      else None
    in
    let availability ~time v =
      (match churn_timeline with
      | Some timeline -> Churn.is_online timeline ~host:v ~time
      | None -> true)
      && Chaos.node_online chaos ~time v
    in
    let dropper_count =
      int_of_float (Float.round (scenario.dropper_fraction *. float_of_int node_count))
    in
    let dropper_picks = Prng.sample_without_replacement rng dropper_count node_count in
    let is_dropper = Array.make node_count false in
    Array.iter (fun v -> is_dropper.(v) <- true) dropper_picks;
    let behavior v =
      if sampler_mask.(v) then
        Protocol.Sparse_advertiser (match sampler_keep with Some k -> k | None -> 0.4)
      else if is_dropper.(v) then Protocol.Message_dropper scenario.drop_probability
      else Protocol.Honest
    in
    let config = apply_disabled Protocol.default_config disable in
    let protocol =
      Protocol.create ~world ~engine ~link_state ~rng:(Prng.split rng) ~availability
        ~control_latency:(fun ~time -> Chaos.control_latency chaos ~time)
        ~put_copies:(fun ~time -> Chaos.put_copies chaos ~time)
        ~obs ~taps config ~behavior
    in
    dht_ref := Some (Protocol.dht protocol);
    Protocol.start_probing protocol ~horizon:scenario.duration;
    (* The biased-join detection vector is the Section 3.1 routing-state
       exchange: schedule one mid-run, while the campaign is live. *)
    let advert_reports = ref [] in
    (match scenario.adversary with
    | Targeted_biased _ ->
        Engine.schedule_at engine ~time:(0.5 *. scenario.duration) (fun _ ->
            advert_reports := Protocol.exchange_advertisements protocol @ !advert_reports)
    | _ -> ());
    let outcomes = Array.make scenario.messages None in
    let message_rng = Prng.split rng in
    let warm = 0.1 *. scenario.duration in
    let span = scenario.duration -. 500. -. warm in
    for i = 0 to scenario.messages - 1 do
      let at = warm +. (span *. float_of_int i /. float_of_int (max 1 scenario.messages)) in
      Engine.schedule_at engine ~time:at (fun _ ->
          let from, dest =
            match targeted with
            | Some (from, dest) -> (from, dest)
            | None -> (Prng.int message_rng node_count, Id.random message_rng)
          in
          Protocol.send_message protocol ~from ~dest ~payload:"soak"
            ~on_outcome:(fun outcome -> outcomes.(i) <- Some outcome))
    done;
    (* Metrics time series: sample the live registry at every epoch
       boundary in virtual time. The sampler only deep-copies the metrics
       -- it never touches simulation state -- so arming it cannot perturb
       the run or its byte-stable transcript. *)
    let horizon = scenario.duration +. 900. in
    Option.iter
      (fun series ->
        let cadence = Timeseries.cadence series in
        let epochs = int_of_float (Float.floor (horizon /. cadence)) in
        for k = 1 to epochs do
          Engine.schedule_at engine ~time:(float_of_int k *. cadence) (fun e ->
              Timeseries.sample series ~time:(Engine.now e) obs.Collector.metrics)
        done)
      timeseries;
    (* Run past the horizon so the last judgments (drop + Delta + injected
       control latency, after retransmits) flush. *)
    Engine.run_until engine horizon;
    Array.iter
      (fun outcome ->
        match outcome with
        | None -> tally.missing <- tally.missing + 1
        | Some o ->
            if o.Protocol.attempts > 1 then tally.retransmitted <- tally.retransmitted + 1;
            if o.Protocol.no_commitment_from <> None then
              tally.flagged_no_commitment <- tally.flagged_no_commitment + 1;
            if o.Protocol.delivered then tally.delivered <- tally.delivered + 1
            else begin
              match o.Protocol.diagnosis with
              | None -> tally.unresolved <- tally.unresolved + 1
              | Some (Protocol.Insufficient_evidence _) -> tally.degraded <- tally.degraded + 1
              | Some (Protocol.Diagnosed resolution) -> (
                  match resolution.Stewardship.final with
                  | Some (Stewardship.Next_hop v) ->
                      tally.diagnosed_node <- tally.diagnosed_node + 1;
                      if v >= 0 && v < node_count && compromised_mask.(v) then
                        adv.adversary_blamed <- adv.adversary_blamed + 1;
                      if v >= 0 && v < node_count && victim_mask.(v) then
                        adv.victim_blamed <- adv.victim_blamed + 1
                  | Some Stewardship.Network ->
                      tally.diagnosed_network <- tally.diagnosed_network + 1
                  | Some (Stewardship.Offline _) ->
                      tally.diagnosed_offline <- tally.diagnosed_offline + 1
                  | None -> tally.diagnosed_none <- tally.diagnosed_none + 1)
            end)
      outcomes;
    List.iter
      (fun report ->
        (* Only the Section 3.1 density (jump-table occupancy) test counts:
           that is the check --disable-defense density-validation turns
           off, so its canary must go dark without it. *)
        if
          report.Protocol.advertiser >= 0
          && report.Protocol.advertiser < node_count
          && sampler_mask.(report.Protocol.advertiser)
          && List.exists
               (fun failure ->
                 match failure with
                 | Validation.Sparse_jump_table _ -> true
                 | _ -> false)
               report.Protocol.failures
        then adv.advert_flagged <- adv.advert_flagged + 1)
      !advert_reports;
    (* Formal accusations: read every replica (ignoring availability -- the
       records are durable). Accusations naming honest nodes are an
       invariant violation; accusations naming compromised nodes are the
       collusion/eclipse detection signal. Framing and eclipse victims are
       honest nodes. *)
    let honest_accusations = ref 0 in
    let dht = Protocol.dht protocol in
    for v = 0 to node_count - 1 do
      if not (is_dropper.(v) || compromised_mask.(v)) then begin
        let hops = ref 0 in
        let named =
          Dht.get dht ~from:0 ~accused_key:(World.public_key_of world v) ~hops ()
        in
        honest_accusations :=
          !honest_accusations + List.length named.Dht.accusations
      end
      else if compromised_mask.(v) then begin
        let hops = ref 0 in
        let named =
          Dht.get dht ~from:0 ~accused_key:(World.public_key_of world v) ~hops ()
        in
        adv.compromised_accusations <-
          adv.compromised_accusations + List.length named.Dht.accusations
      end
    done;
    let adversary_detected =
      match scenario.adversary with
      | No_adversary -> false
      | Sampled -> true (* background pressure: no detection criterion *)
      | Targeted_collusion _ ->
          (* Episode-level blame alone is too weak a bar: one stray episode
             pinned on a colluder while the rest are shielded would still
             "detect". Require the durable enforcement artifact — a formal
             accusation filed against a coalition member. *)
          adv.compromised_accusations > 0
      | Targeted_eclipse _ -> adv.adversary_blamed > 0 || adv.compromised_accusations > 0
      | Targeted_lying _ ->
          (* The defense "detects" the campaign by withstanding it: framed
             episodes existed and none settled on the victim. *)
          tally.diagnosed_network > 0 && adv.victim_blamed = 0
      | Targeted_biased _ -> adv.advert_flagged > 0
    in
    {
      scenario;
      faults = Chaos.fault_counts plan;
      adversaries = Chaos.adversary_counts adversary_plan;
      tally;
      taps = tap_counts obs.Collector.metrics;
      adv;
      adversary_present = adversary_plan <> [];
      adversary_detected;
      honest_accusations = !honest_accusations;
      dht_failover_times =
        List.map fst (Trace.instants obs.Collector.trace ~name:"dht.put.failover");
      failure = None;
    }
  with e ->
    {
      scenario;
      faults = [];
      adversaries = [];
      tally;
      taps = tap_counts obs.Collector.metrics;
      adv;
      adversary_present = false;
      adversary_detected = false;
      honest_accusations = 0;
      dht_failover_times = [];
      failure = Some (Printexc.to_string e);
    }

(* ---------- Transcript ---------- *)

let adversary_fired taps =
  taps.forced_drops > 0 || taps.lies > 0 || taps.route_rewrites > 0 || taps.advert_rewrites > 0
  || taps.forged_reports > 0

let invariant_inputs r =
  {
    Soak.failure = r.failure;
    missing_outcomes = r.tally.missing;
    unresolved = r.tally.unresolved;
    honest_accusations = r.honest_accusations;
    adversary_present = r.adversary_present;
    adversary_fired = adversary_fired r.taps;
    adversary_detected = r.adversary_detected;
    require_detection = r.scenario.require_detection;
  }

let scenario_passed r = Soak.pass (invariant_inputs r)

let emit_json buf ~matrix ~seed ~disable ~expect_failure results =
  let add fmt = Printf.bprintf buf fmt in
  add "{\n  \"matrix\": %s,\n  \"seed\": %Ld,\n" (Json.quote matrix) seed;
  (match disable with
  | None -> add "  \"disabled_defense\": null,\n"
  | Some d -> add "  \"disabled_defense\": %s,\n" (Json.quote (defense_name d)));
  add "  \"expect_failure\": %b,\n  \"scenarios\": [\n" expect_failure;
  List.iteri
    (fun i r ->
      let t = r.tally in
      add "    {\n      \"name\": %s,\n" (Json.quote r.scenario.name);
      add "      \"faults\": {";
      List.iteri
        (fun j (family, count) ->
          add "%s%s: %d" (if j = 0 then "" else ", ") (Json.quote family) count)
        r.faults;
      add "},\n";
      add "      \"adversaries\": {";
      List.iteri
        (fun j (family, count) ->
          add "%s%s: %d" (if j = 0 then "" else ", ") (Json.quote family) count)
        r.adversaries;
      add "},\n";
      add "      \"sent\": %d,\n" r.scenario.messages;
      add "      \"delivered\": %d,\n" t.delivered;
      add "      \"retransmitted\": %d,\n" t.retransmitted;
      add "      \"diagnosed_node\": %d,\n" t.diagnosed_node;
      add "      \"diagnosed_network\": %d,\n" t.diagnosed_network;
      add "      \"diagnosed_offline\": %d,\n" t.diagnosed_offline;
      add "      \"diagnosed_no_target\": %d,\n" t.diagnosed_none;
      add "      \"degraded_insufficient_evidence\": %d,\n" t.degraded;
      add "      \"flagged_no_commitment\": %d,\n" t.flagged_no_commitment;
      add "      \"unresolved\": %d,\n" t.unresolved;
      add "      \"missing_outcomes\": %d,\n" t.missing;
      add "      \"honest_accusations\": %d,\n" r.honest_accusations;
      add "      \"adversary\": {";
      add "\"forced_drops\": %d, " r.taps.forced_drops;
      add "\"lies\": %d, " r.taps.lies;
      add "\"route_rewrites\": %d, " r.taps.route_rewrites;
      add "\"advert_rewrites\": %d, " r.taps.advert_rewrites;
      add "\"forged_reports\": %d, " r.taps.forged_reports;
      add "\"adversary_blamed\": %d, " r.adv.adversary_blamed;
      add "\"victim_blamed\": %d, " r.adv.victim_blamed;
      add "\"compromised_accusations\": %d, " r.adv.compromised_accusations;
      add "\"advert_flagged\": %d, " r.adv.advert_flagged;
      add "\"fired\": %b, " (adversary_fired r.taps);
      add "\"detected\": %b},\n" r.adversary_detected;
      add "      \"dht_failover_times\": [";
      List.iteri
        (fun j time -> add "%s%.6f" (if j = 0 then "" else ", ") time)
        r.dht_failover_times;
      add "],\n";
      (match r.failure with
      | None -> add "      \"exception\": null,\n"
      | Some msg -> add "      \"exception\": %s,\n" (Json.quote msg));
      add "      \"invariant_failures\": [";
      List.iteri
        (fun j label -> add "%s%s" (if j = 0 then "" else ", ") (Json.quote label))
        (Soak.failures (invariant_inputs r));
      add "],\n";
      add "      \"pass\": %b\n" (scenario_passed r);
      add "    }%s\n" (if i = List.length results - 1 then "" else ","))
    results;
  add "  ],\n  \"pass\": %b\n}\n" (List.for_all scenario_passed results)

let run matrix seed domains trace_out metrics_out trace_filter provenance_out flight_out
    timeseries_out cadence disable expect_failure =
  let scenarios =
    match matrix with
    | "small" -> small_matrix
    | "adversarial" -> adversarial_matrix
    | "full" -> full_matrix
    | other ->
        Printf.eprintf "unknown matrix %S (expected small, adversarial or full)\n" other;
        exit 2
  in
  (* Pre-split every scenario's PRNG — and pre-allocate its observability
     collector — before the fan-out: the transcript and any exported
     trace/metrics are byte-identical for any --domains value. Collectors
     always record here because the transcript's dht_failover_times field
     reads the trace. *)
  let master = Prng.of_seed seed in
  let count = List.length scenarios in
  let rngs = Prng.split_n master count in
  let collectors = Collector.shards count in
  (* Flight recorders and time series are per-scenario shards, allocated
     and attached before the fan-out like every other sink: each worker
     only ever touches its own scenario's ring and series. *)
  let flights =
    if flight_out = None then [||]
    else
      Array.init count (fun i ->
          let flight = Flight.create () in
          Flight.attach flight collectors.(i);
          flight)
  in
  let series =
    if timeseries_out = None then [||]
    else begin
      if cadence <= 0. then begin
        Printf.eprintf "--cadence must be positive\n";
        exit 2
      end;
      Array.init count (fun _ -> Timeseries.create ~cadence)
    end
  in
  let indexed = Array.of_list (List.mapi (fun i s -> (i, s)) scenarios) in
  let results =
    Pool.with_pool ?domains (fun pool ->
        Pool.parallel_map ~pool indexed ~f:(fun (i, s) ->
            run_scenario ~seed ~index:i ~rng:rngs.(i) ~obs:collectors.(i)
              ~timeseries:(if series = [||] then None else Some series.(i))
              ~disable s))
  in
  let results = Array.to_list results in
  if trace_out <> None || metrics_out <> None || provenance_out <> None then begin
    let merged = Collector.merge collectors in
    let filter = Export.filter_of_spec trace_filter in
    Option.iter
      (fun path -> Export.write_trace ~path ?filter merged.Collector.trace)
      trace_out;
    Option.iter (fun path -> Export.write_metrics ~path merged.Collector.metrics) metrics_out;
    Option.iter
      (fun path -> Export.write_file ~path (Prov_graph.jsonl merged.Collector.prov))
      provenance_out
  end;
  Option.iter
    (fun path ->
      Export.write_file ~path (Timeseries.jsonl (Timeseries.merge series)))
    timeseries_out;
  (* Flight dumps only materialize on failure: each failed scenario's ring
     (its last trace records and provenance deltas) is appended to the
     artifact, so a red soak ships with its trailing context. *)
  Option.iter
    (fun path ->
      if List.exists (fun r -> not (scenario_passed r)) results then
        List.mapi (fun i r -> (r, flights.(i))) results
        |> List.filter_map (fun (r, flight) ->
               if scenario_passed r then None
               else begin
                 let reason =
                   Printf.sprintf "%s: %s" r.scenario.name
                     (String.concat ", " (Soak.failures (invariant_inputs r)))
                 in
                 Some (Flight.dump ~reason flight)
               end)
        |> String.concat "" |> Export.write_file ~path)
    flight_out;
  let buf = Buffer.create 4096 in
  emit_json buf ~matrix ~seed ~disable ~expect_failure results;
  print_string (Buffer.contents buf);
  List.iter
    (fun r ->
      Printf.eprintf "scenario %-18s %s\n" r.scenario.name
        (if scenario_passed r then "ok"
         else
           Printf.sprintf "FAILED (%s)"
             (String.concat ", " (Soak.failures (invariant_inputs r)))))
    results;
  let pass_all = List.for_all scenario_passed results in
  if expect_failure then
    if pass_all then begin
      Printf.eprintf
        "expected at least one scenario to fail (canary for disabled defense), but all passed\n";
      1
    end
    else 0
  else Soak.exit_code ~pass_all

open Cmdliner

let matrix =
  Arg.(
    value & opt string "small"
    & info [ "matrix" ] ~docv:"MATRIX"
        ~doc:"Scenario matrix: small (CI), adversarial (detection scenarios), or full.")

let seed = Arg.(value & opt int64 42L & info [ "seed" ] ~doc:"Deterministic seed.")

let domains =
  let doc =
    "Domains for the scenario fan-out (default: recommended count; 1 = sequential). The \
     transcript is byte-identical for any value."
  in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the merged per-scenario trace (protocol spans + chaos fault events) to \
           $(docv): Chrome trace_event JSON for .json names, JSONL otherwise.")

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write the merged metrics snapshot as JSON to $(docv).")

let trace_filter =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-filter" ] ~docv:"CATS"
        ~doc:"Keep only trace records in these comma-separated categories (e.g. chaos,episode).")

let provenance_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "provenance" ] ~docv:"FILE"
        ~doc:
          "Write the merged verdict-provenance graph as JSONL to $(docv): every \
           verdict and accusation with its evidence DAG, replayable with \
           concilium-explain. Byte-identical for any --domains value.")

let flight_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight" ] ~docv:"FILE"
        ~doc:
          "Arm a per-scenario flight recorder (a bounded ring of trace records and \
           provenance deltas) and, if any scenario fails its invariants, dump the failed \
           scenarios' rings to $(docv). No file is written on a green run.")

let timeseries_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "timeseries" ] ~docv:"FILE"
        ~doc:
          "Sample every scenario's metrics registry at a fixed virtual-time cadence (see \
           $(b,--cadence)) and write the merged epoch-bucketed series as JSONL to $(docv).")

let cadence =
  Arg.(
    value & opt float 300.
    & info [ "cadence" ] ~docv:"SECONDS"
        ~doc:"Epoch width, in virtual seconds, for $(b,--timeseries) sampling.")

let disable_defense =
  Arg.(
    value
    & opt
        (some
           (enum
              [
                ("suspect-exclusion", Suspect_exclusion);
                ("vote-dedup", Vote_dedup);
                ("density-validation", Density_validation);
              ]))
        None
    & info [ "disable-defense" ] ~docv:"NAME"
        ~doc:
          "Disable one runtime defense (suspect-exclusion, vote-dedup, or \
           density-validation) before running the matrix. CI pairs this with \
           $(b,--expect-failure) as a canary: with the defense off, the matching \
           detection scenario must fail.")

let expect_failure =
  Arg.(
    value & flag
    & info [ "expect-failure" ]
        ~doc:
          "Invert the exit status: succeed only if at least one scenario fails its \
           invariants. Guards disabled-defense canaries against passing vacuously.")

let cmd =
  let doc = "Chaos soak: run fault scenarios against the protocol runtime, check invariants" in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const run $ matrix $ seed $ domains $ trace_out $ metrics_out $ trace_filter
      $ provenance_out $ flight_out $ timeseries_out $ cadence $ disable_defense
      $ expect_failure)

let () = exit (Cmd.eval' cmd)
