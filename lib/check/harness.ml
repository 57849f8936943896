module Json = Concilium_util.Json
module Prng = Concilium_util.Prng
module Pool = Concilium_util.Pool
module World = Concilium_core.World
module Protocol = Concilium_core.Protocol
module Dht = Concilium_core.Dht
module Engine = Concilium_netsim.Engine
module Link_state = Concilium_netsim.Link_state
module Chaos = Concilium_netsim.Chaos
module Graph = Concilium_topology.Graph
module Id = Concilium_overlay.Id
module Collector = Concilium_obs.Collector
module Metrics = Concilium_obs.Metrics

type outcome = { seed : int; ops : int; divergence : Lockstep.divergence option }

type report = {
  outcomes : outcome list;
  divergent : int;
  counterexample : (Schedule.t * Lockstep.divergence) option;
}

let minimize ?mutation schedule divergence =
  let reproduces ops =
    Option.is_some (Lockstep.run ?mutation (Schedule.with_ops schedule ops))
  in
  let minimized = Schedule.with_ops schedule (Shrink.ddmin ~reproduces schedule.Schedule.ops) in
  match Lockstep.run ?mutation minimized with
  | Some minimized_divergence -> (minimized, minimized_divergence)
  | None ->
      (* Unreachable while ddmin preserves its invariant; fall back to the
         unshrunk schedule rather than lose the counterexample. *)
      (schedule, divergence)

let run_budget ?domains ?mutation ~base_seed ~budget () =
  let seeds = Array.init budget (fun i -> base_seed + i) in
  let raw =
    Pool.with_pool ?domains (fun pool ->
        Pool.parallel_map ~pool seeds ~f:(fun seed ->
            let schedule = Schedule.generate ~seed in
            (seed, schedule, Lockstep.run ?mutation schedule)))
  in
  let outcomes =
    Array.to_list
      (Array.map
         (fun (seed, schedule, divergence) ->
           { seed; ops = Schedule.op_count schedule; divergence })
         raw)
  in
  let divergent =
    List.length (List.filter (fun o -> Option.is_some o.divergence) outcomes)
  in
  let counterexample =
    Array.to_list raw
    |> List.find_map (fun (_, schedule, divergence) ->
           Option.map (fun d -> (schedule, d)) divergence)
    |> Option.map (fun (schedule, divergence) -> minimize ?mutation schedule divergence)
  in
  { outcomes; divergent; counterexample }

let render_transcript report =
  let buf = Buffer.create 1024 in
  List.iter
    (fun o ->
      match o.divergence with
      | None -> Buffer.add_string buf (Printf.sprintf "seed=%d ops=%d ok\n" o.seed o.ops)
      | Some d ->
          Buffer.add_string buf
            (Printf.sprintf "seed=%d ops=%d DIVERGED op=%d %s: %s\n" o.seed o.ops
               d.Lockstep.op_index d.Lockstep.component d.Lockstep.detail))
    report.outcomes;
  Buffer.add_string buf
    (Printf.sprintf "schedules=%d divergent=%d\n" (List.length report.outcomes)
       report.divergent);
  (match report.counterexample with
  | None -> ()
  | Some (schedule, divergence) ->
      Buffer.add_string buf
        (Printf.sprintf "counterexample seed=%d minimized_ops=%d op=%d %s: %s\n"
           schedule.Schedule.seed
           (Schedule.op_count schedule)
           divergence.Lockstep.op_index divergence.Lockstep.component
           divergence.Lockstep.detail));
  Buffer.contents buf

(* ---------- Artifacts & replay ---------- *)

let artifact ~schedule ~mutation ~divergence =
  Json.Obj
    [
      ("format", Json.String "concilium-check-counterexample");
      ("version", Json.Int 1);
      ( "mutation",
        match mutation with
        | None -> Json.Null
        | Some m -> Json.String (Lockstep.mutation_name m) );
      ( "divergence",
        Json.Obj
          [
            ("op_index", Json.Int divergence.Lockstep.op_index);
            ("component", Json.String divergence.Lockstep.component);
            ("detail", Json.String divergence.Lockstep.detail);
          ] );
      ("schedule", Schedule.encode schedule);
    ]

type replay_result = {
  schedule : Schedule.t;
  mutation : Lockstep.mutation option;
  replay_divergence : Lockstep.divergence option;
}

let ( let* ) r f = Result.bind r f

let replay text =
  let* json = Json.parse text in
  let* mutation =
    match Json.member "mutation" json with
    | None | Some Json.Null -> Ok None
    | Some field -> (
        match Option.bind (Some field) Json.string_value with
        | None -> Error "mutation field must be a string or null"
        | Some name -> (
            match Lockstep.mutation_of_name name with
            | Some m -> Ok (Some m)
            | None -> Error (Printf.sprintf "unknown mutation %S" name)))
  in
  let* schedule =
    match Json.member "schedule" json with
    | None -> Error "missing \"schedule\" field"
    | Some field -> Schedule.decode field
  in
  Ok { schedule; mutation; replay_divergence = Lockstep.run ?mutation schedule }

(* ---------- Byte reconciliation ---------- *)

type reconciliation = { metered : int; charged : int }

let reconcile_bytes ~seed =
  let rng = Prng.of_seed (Int64.of_int seed) in
  let world = World.build (World.tiny_config ~seed:(Int64.of_int (seed + 77))) in
  let graph = world.World.generated.World.Generate.graph in
  let node_count = World.node_count world in
  let link_count = Graph.link_count graph in
  let engine = Engine.create () in
  let link_state = Link_state.create ~link_count ~good_loss:0.001 ~bad_loss:1. in
  let obs = Collector.create () in
  let horizon = 1200. in
  let plan =
    Chaos.sample ~rng:(Prng.split rng)
      ~config:
        {
          Chaos.quiet with
          Chaos.link_flaps_per_hour = 6.;
          flap_mean_duration = 120.;
          crashes_per_hour = 2.;
          crash_mean_duration = 180.;
          replica_losses_per_hour = 2.;
          duplications_per_hour = 2.;
          duplication_mean_duration = 300.;
          duplication_copies = 2;
        }
      ~links:(Array.init link_count Fun.id) ~nodes:node_count ~cuts:[||] ~horizon
  in
  let dht_ref = ref None in
  let chaos =
    Chaos.compile
      ~on_replica_loss:(fun ~node ~time:_ ->
        match !dht_ref with Some dht -> Dht.drop_replica dht ~node | None -> ())
      ~engine ~link_state plan
  in
  let protocol =
    Protocol.create ~world ~engine ~link_state ~rng:(Prng.split rng)
      ~availability:(fun ~time v -> Chaos.node_online chaos ~time v)
      ~control_latency:(fun ~time -> Chaos.control_latency chaos ~time)
      ~put_copies:(fun ~time -> Chaos.put_copies chaos ~time)
      ~obs Protocol.default_config
      ~behavior:(fun _ -> Protocol.Honest)
  in
  dht_ref := Some (Protocol.dht protocol);
  Protocol.start_probing protocol ~horizon;
  Engine.run_until engine (horizon /. 2.);
  for _ = 1 to 3 do
    let from = Prng.int rng node_count in
    let dest = Id.random rng in
    Protocol.send_message protocol ~from ~dest ~payload:"conformance"
      ~on_outcome:(fun _ -> ())
  done;
  Engine.run_until engine (horizon +. 600.);
  let (_ : Protocol.advertisement_report list) = Protocol.exchange_advertisements protocol in
  let metrics = obs.Collector.metrics in
  let metered =
    List.fold_left
      (fun acc name -> acc + Metrics.counter metrics name)
      0
      [
        "bytes.probe_stripe"; "bytes.advert_diff"; "bytes.snapshot_exchange";
        "bytes.heavy_probe";
      ]
  in
  let charged = ref 0 in
  for v = 0 to node_count - 1 do
    charged := !charged + Protocol.control_bytes_sent protocol v
  done;
  { metered; charged = !charged }
