(* The protocol workloads: a Concilium deployment driven by virtual clients
   in a closed loop, one engine in one domain.

   The benchmark generates the inputs and hands them to the public World /
   Protocol / Engine API. The world and its faults (the dropper set and the
   link-failure timeline) are a fixed instance per workload, drawn from
   [world_seed]; the run's seed draws the traffic (the flows and every
   message's sender and key) and the protocol's own randomness. Which
   nodes drop and which access links fail moves throughput by a quarter
   between fault draws, so fixing them keeps runs of different seeds
   comparable. *)

module World = Concilium_core.World
module Protocol = Concilium_core.Protocol
module Blame = Concilium_core.Blame
module Engine = Concilium_netsim.Engine
module Link_state = Concilium_netsim.Link_state
module Link_history = Concilium_netsim.Link_history
module Failures = Concilium_netsim.Failures
module Graph = Concilium_topology.Graph
module Id = Concilium_overlay.Id
module Prng = Concilium_util.Prng
module Collector = Concilium_obs.Collector
module Trace = Concilium_obs.Trace
module Metrics = Concilium_obs.Metrics
module Prov = Concilium_provenance.Graph

type traffic =
  | Burst of { clients : int }
      (** each client sends (random sender, random key) as soon as its
          previous outcome fires *)
  | Flows of { flows : int; through_dropper : int; think_s : float }
      (** persistent (sender, key) flows, [through_dropper] of them routed
          across a dropping forwarder; each waits [think_s] virtual seconds
          after an outcome, and reads the DHT's accusations against any
          node a diagnosis names *)

type spec = {
  world_config : seed:int64 -> World.config;
  world_seed : int64;  (** draws the world and its faults *)
  link_failures : bool;  (** replay the paper's link-failure process *)
  exchange : bool;  (** one routing-state exchange during set-up *)
  traffic : traffic;
  virtual_per_wall : float;
      (** the failure timeline and probing run to [virtual_per_wall] virtual
          seconds per measured wall second past the warm-up *)
}

let warmup_s = 300.
let dropper_fraction = 0.1
let drop_probability = 0.8

let paper_burst =
  {
    world_config = World.paper_config;
    world_seed = 1907L;
    link_failures = true;
    exchange = false;
    traffic = Burst { clients = 64 };
    virtual_per_wall = 2_000.;
  }

let flow_accuse =
  {
    world_config = World.small_config;
    world_seed = 1907L;
    link_failures = false;
    exchange = true;
    traffic = Flows { flows = 32; through_dropper = 12; think_s = 10. };
    virtual_per_wall = 20_000.;
  }

let build_world spec = World.build (spec.world_config ~seed:spec.world_seed)

type tally = {
  mutable sent : int;
  mutable resolved : int;
  mutable delivered : int;
  mutable episodes : int;
  mutable failed : int;  (* outcomes that break the outcome contract *)
  mutable missed : int;  (* diagnoses that miss the ground truth *)
  mutable episode_ms : float list;
  digest : Outcome.Digest.t;
  mutable dht_gets : int;
  mutable accusations_read : int;
  mutable dht_get_s : float;
  mutable send_s : float list;  (* traced run only *)
  mutable route_s : float list;  (* traced run only *)
}

type t = {
  spec : spec;
  world : World.t;
  engine : Engine.t;
  protocol : Protocol.t;
  horizon : float;
  tracer : Steps.t option;
  flows : (int * Id.t) array;
  message_rng : Prng.t;
  exchange_s : float;
  validations : int;
  tally : tally;
}

(* A route's forwarders: every hop but the sender and the key's root. *)
let forwarders route =
  match route with
  | [] -> []
  | _sender :: rest -> ( match List.rev rest with [] -> [] | _root :: middle -> List.rev middle)

let choose_flows world ~is_dropper ~rng ~flows ~through_dropper =
  let n = World.node_count world in
  Array.init flows (fun i ->
      let want = i < through_dropper in
      let rec draw tries =
        if tries = 0 then failwith "perfbench: no flow with the required dropper crossing"
        else begin
          let from = Prng.int rng n in
          let dest = Id.random rng in
          let crosses =
            List.exists (fun v -> is_dropper.(v)) (forwarders (World.overlay_route world ~from ~dest))
          in
          if (not is_dropper.(from)) && crosses = want then (from, dest) else draw (tries - 1)
        end
      in
      draw 100_000)

let client_count spec = match spec.traffic with Burst { clients } -> clients | Flows { flows; _ } -> flows

(* Set-up: faults, protocol, probing, the exchange and the warm-up. With
   [traced], the protocol gets a collector whose trace sink records (its
   spans stamped by the step classifier) and the classifier's tap. *)
let create spec ~world ~seed ~seconds ~traced =
  let link_count = Graph.link_count world.World.generated.World.Generate.graph in
  let n = World.node_count world in
  let horizon = warmup_s +. (spec.virtual_per_wall *. seconds) in
  let faults = Prng.of_seed (Int64.succ spec.world_seed) in
  let rng = Prng.of_seed seed in
  let engine = Engine.create () in
  let link_state = Link_state.create ~link_count ~good_loss:0.001 ~bad_loss:0.9 in
  if spec.link_failures then begin
    let failures =
      Failures.generate ~rng:(Prng.split faults) ~config:Failures.paper_config ~link_count
        ~routes:(World.all_peer_paths world) ~duration:horizon
    in
    Link_history.replay failures.Failures.history ~engine ~state:link_state ~horizon
  end;
  let is_dropper = Array.make n false in
  Array.iter
    (fun v -> is_dropper.(v) <- true)
    (Prng.sample_without_replacement faults
       (int_of_float (Float.round (dropper_fraction *. float_of_int n)))
       n);
  let behavior v = if is_dropper.(v) then Protocol.Message_dropper drop_probability else Protocol.Honest in
  let flows =
    match spec.traffic with
    | Burst _ -> [||]
    | Flows { flows; through_dropper; _ } ->
        choose_flows world ~is_dropper ~rng:(Prng.split rng) ~flows ~through_dropper
  in
  let tracer = if traced then Some (Steps.create ()) else None in
  let obs, taps =
    match tracer with
    | None -> (Collector.noop, Protocol.no_taps)
    | Some tracer ->
        let trace = Trace.create () in
        Trace.set_tap trace (Steps.on_trace_line tracer);
        ({ Collector.trace; metrics = Metrics.noop; prov = Prov.noop }, Steps.taps tracer)
  in
  let protocol =
    Protocol.create ~world ~engine ~link_state ~rng:(Prng.split rng) ~obs ~taps Protocol.default_config
      ~behavior
  in
  Protocol.start_probing protocol ~horizon;
  let exchange_s, validations =
    if not spec.exchange then (0., 0)
    else begin
      let (_ : Protocol.advertisement_report list), seconds =
        Host.timed (fun () -> Protocol.exchange_advertisements protocol)
      in
      (seconds, Array.fold_left (fun acc peers -> acc + Array.length peers) 0 world.World.peers)
    end
  in
  Engine.run_until engine warmup_s;
  {
    spec;
    world;
    engine;
    protocol;
    horizon;
    tracer;
    flows;
    message_rng = Prng.split rng;
    exchange_s;
    validations;
    tally =
      {
        sent = 0;
        resolved = 0;
        delivered = 0;
        episodes = 0;
        failed = 0;
        missed = 0;
        episode_ms = [];
        digest = Outcome.Digest.create ();
        dht_gets = 0;
        accusations_read = 0;
        dht_get_s = 0.;
        send_s = [];
        route_s = [];
      };
  }

(* A benchmark call into the protocol from inside a step: billed to the
   benchmark in the traced run, plain otherwise. *)
let call t f = match t.tracer with None -> (f (), 0.) | Some tracer -> Steps.bill tracer f

let rec send t ~client =
  let from, dest =
    match t.spec.traffic with
    | Burst _ ->
        let from = Prng.int t.message_rng (World.node_count t.world) in
        (from, Id.random t.message_rng)
    | Flows _ -> t.flows.(client)
  in
  let tally = t.tally in
  tally.sent <- tally.sent + 1;
  if t.tracer <> None then begin
    let (_ : int list), seconds = call t (fun () -> World.overlay_route t.world ~from ~dest) in
    tally.route_s <- seconds :: tally.route_s
  end;
  let sent_at = Host.now () in
  let (), seconds =
    call t (fun () ->
        Protocol.send_message t.protocol ~from ~dest ~payload:"perfbench"
          ~on_outcome:(resolve t ~client ~from ~sent_at))
  in
  if t.tracer <> None then tally.send_s <- seconds :: tally.send_s

and resolve t ~client ~from ~sent_at outcome =
  let latency_ms = (Host.now () -. sent_at) *. 1e3 in
  let tally = t.tally in
  tally.resolved <- tally.resolved + 1;
  Outcome.Digest.add tally.digest (Outcome.line outcome);
  if not (Outcome.well_formed outcome) then tally.failed <- tally.failed + 1;
  if Outcome.missed (Outcome.classify outcome) then tally.missed <- tally.missed + 1;
  if outcome.Protocol.delivered then tally.delivered <- tally.delivered + 1
  else begin
    Option.iter Steps.mark_judgment t.tracer;
    tally.episodes <- tally.episodes + 1;
    tally.episode_ms <- latency_ms :: tally.episode_ms
  end;
  let think_s =
    match t.spec.traffic with
    | Burst _ -> 0.
    | Flows { think_s; _ } ->
        Option.iter
          (fun accused ->
            let accusations, seconds =
              call t (fun () -> Protocol.fetch_accusations t.protocol ~from ~accused)
            in
            tally.dht_gets <- tally.dht_gets + 1;
            tally.accusations_read <- tally.accusations_read + List.length accusations;
            tally.dht_get_s <- tally.dht_get_s +. seconds)
          (Outcome.named_node outcome);
        think_s
  in
  Engine.schedule t.engine ~delay:think_s (fun _ -> send t ~client)

(* First sends are spread evenly over one blame window (Delta). A diagnosis
   always takes the retries plus Delta of virtual time, so clients started
   together would stay in lockstep and every judgment would land in one
   burst. *)
let start_clients t =
  let clients = client_count t.spec in
  let spread = Protocol.default_config.Protocol.blame.Blame.delta in
  for client = 0 to clients - 1 do
    Engine.schedule t.engine ~delay:(spread *. float_of_int client /. float_of_int clients) (fun _ ->
        send t ~client)
  done

type run = { steps : int; wall_s : float; virtual_s : float }

let measure t ~continue ~step =
  start_clients t;
  let t0 = Host.now () in
  let steps = ref 0 in
  while continue !steps && Engine.now t.engine < t.horizon && step () do
    incr steps
  done;
  { steps = !steps; wall_s = Host.now () -. t0; virtual_s = Engine.now t.engine -. warmup_s }

(* The untraced measured phase: engine steps until [seconds] of wall time. *)
let run_for t ~seconds =
  let deadline = Host.now () +. seconds in
  measure t ~continue:(fun _ -> Host.now () < deadline) ~step:(fun () -> Engine.step t.engine)

(* Exactly [steps] engine steps; on a traced instance each is timed and
   classified. *)
let run_steps t ~steps =
  let step =
    match t.tracer with
    | None -> fun () -> Engine.step t.engine
    | Some tracer -> fun () -> Steps.step tracer t.engine
  in
  measure t ~continue:(fun done_ -> done_ < steps) ~step
