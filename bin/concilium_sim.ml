(* End-to-end protocol simulation: build a world, inject link failures and
   misbehaving nodes, run lightweight probing, send messages, and print
   Concilium's per-drop diagnoses against ground truth. *)

module World = Concilium_core.World
module Protocol = Concilium_core.Protocol
module Stewardship = Concilium_core.Stewardship
module Engine = Concilium_netsim.Engine
module Link_state = Concilium_netsim.Link_state
module Link_history = Concilium_netsim.Link_history
module Failures = Concilium_netsim.Failures
module Churn = Concilium_netsim.Churn
module Graph = Concilium_topology.Graph
module Id = Concilium_overlay.Id
module Prng = Concilium_util.Prng
module Collector = Concilium_obs.Collector
module Export = Concilium_obs.Export
module Trace = Concilium_obs.Trace

type stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable correct_node : int; (* diagnosis named the true dropper *)
  mutable correct_network : int; (* network blamed and a link really dropped it *)
  mutable wrong : int;
  mutable undiagnosed : int;
}

let describe_target world = function
  | Stewardship.Network -> "the IP network"
  | Stewardship.Next_hop v -> Printf.sprintf "node %d (%s)" v (Id.to_hex (World.id_of world v))
  | Stewardship.Offline v ->
      Printf.sprintf "node %d (%s, offline)" v (Id.to_hex (World.id_of world v))

let run seed duration messages dropper_fraction drop_probability churn verbose trace_out
    metrics_out trace_filter =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Info)
  end;
  let observing = trace_out <> None || metrics_out <> None in
  let obs = if observing then Collector.create () else Collector.noop in
  let world = World.build (World.small_config ~seed) in
  let graph = world.World.generated.World.Generate.graph in
  let node_count = World.node_count world in
  Printf.printf "world: %d routers, %d links, %d overlay nodes\n%!" (Graph.node_count graph)
    (Graph.link_count graph) node_count;
  let rng = Prng.of_seed (Int64.add seed 11L) in
  (* Ground-truth link failures, replayed into the live link state. *)
  let failures =
    Failures.generate ~rng:(Prng.split rng) ~config:Failures.paper_config
      ~link_count:(Graph.link_count graph) ~routes:(World.all_peer_paths world) ~duration
  in
  let engine = Engine.create () in
  let link_state =
    Link_state.create ~link_count:(Graph.link_count graph) ~good_loss:0.001 ~bad_loss:0.9
  in
  Link_history.replay failures.Failures.history ~engine ~state:link_state ~horizon:duration;
  (* A fraction of nodes silently drop messages they should forward. *)
  let dropper_count = int_of_float (Float.round (dropper_fraction *. float_of_int node_count)) in
  let droppers = Prng.sample_without_replacement rng dropper_count node_count in
  let is_dropper = Array.make node_count false in
  Array.iter (fun v -> is_dropper.(v) <- true) droppers;
  let behavior v =
    if is_dropper.(v) then Protocol.Message_dropper drop_probability else Protocol.Honest
  in
  let availability =
    if not churn then fun ~time:_ _ -> true
    else begin
      let timeline =
        Churn.generate ~rng:(Prng.split rng) ~hosts:node_count ~duration
      in
      Printf.printf "churn enabled: mean %.0f%% of hosts online\n%!"
        (100. *. Churn.mean_online_fraction timeline ~duration ~samples:32);
      fun ~time host -> Churn.is_online timeline ~host ~time
    end
  in
  let protocol =
    Protocol.create ~world ~engine ~link_state ~rng:(Prng.split rng) ~availability ~obs
      Protocol.default_config ~behavior
  in
  Protocol.start_probing protocol ~horizon:duration;
  (* One routing-state exchange up front: peers validate each other's
     advertised state before trusting its tomography (Section 3.1). In an
     all-honest world the flags below are the density tests' natural false
     positives (Figure 2(a) analysed analytically). *)
  let advertisement_reports = Protocol.exchange_advertisements protocol in
  let validations =
    Array.fold_left (fun acc peers -> acc + Array.length peers) 0 world.World.peers
  in
  Printf.printf
    "routing-state validation: %d/%d advertisements flagged (%.1f%%; density-test false \
     positives in an honest world)\n%!"
    (List.length advertisement_reports)
    validations
    (100. *. float_of_int (List.length advertisement_reports) /. float_of_int (max 1 validations));
  let stats =
    { sent = 0; delivered = 0; correct_node = 0; correct_network = 0; wrong = 0; undiagnosed = 0 }
  in
  let message_rng = Prng.split rng in
  (* Spread messages across the run, after probing has warmed up. *)
  for i = 0 to messages - 1 do
    let at = 300. +. (duration -. 600.) *. float_of_int i /. float_of_int (max 1 messages) in
    Engine.schedule_at engine ~time:at (fun _ ->
        let from = Prng.int message_rng node_count in
        let dest = Id.random message_rng in
        stats.sent <- stats.sent + 1;
        Protocol.send_message protocol ~from ~dest ~payload:"payload" ~on_outcome:(fun outcome ->
            if outcome.Protocol.delivered then stats.delivered <- stats.delivered + 1
            else begin
              let truth = outcome.Protocol.drop in
              match outcome.Protocol.diagnosis with
              | None
              | Some (Protocol.Diagnosed { Stewardship.final = None; _ })
              | Some (Protocol.Insufficient_evidence _) ->
                  stats.undiagnosed <- stats.undiagnosed + 1
              | Some (Protocol.Diagnosed { Stewardship.final = Some target; _ }) -> (
                  let correct =
                    match (target, truth) with
                    | Stewardship.Next_hop v, Some (Protocol.Dropped_by_overlay d) -> v = d
                    | Stewardship.Network, Some (Protocol.Dropped_on_ip_link _)
                    | Stewardship.Network, Some (Protocol.Ack_lost_on_link _) ->
                        true
                    | ( (Stewardship.Next_hop v | Stewardship.Offline v),
                        Some (Protocol.Hop_offline d) ) ->
                        (* Identifying the unreachable hop is the right
                           answer, whether or not absence is treated as a
                           fault. *)
                        v = d
                    | _ -> false
                  in
                  if correct then begin
                    match target with
                    | Stewardship.Next_hop _ | Stewardship.Offline _ ->
                        stats.correct_node <- stats.correct_node + 1
                    | Stewardship.Network -> stats.correct_network <- stats.correct_network + 1
                  end
                  else stats.wrong <- stats.wrong + 1;
                  if verbose then
                    Printf.printf "  t=%7.1f drop %s -> blamed %s (%s)\n"
                      (Engine.now engine)
                      (match truth with
                      | Some (Protocol.Dropped_by_overlay d) -> Printf.sprintf "by node %d" d
                      | Some (Protocol.Dropped_on_ip_link l) -> Printf.sprintf "on link %d" l
                      | Some (Protocol.Ack_lost_on_link l) -> Printf.sprintf "ack on link %d" l
                      | Some (Protocol.Hop_offline v) -> Printf.sprintf "node %d offline" v
                      | None -> "?")
                      (describe_target world target)
                      (if correct then "correct" else "WRONG"))
            end))
  done;
  Engine.run_until engine duration;
  Printf.printf
    "\nmessages: %d sent, %d delivered, %d dropped\ndiagnoses: %d correct (node), %d correct \
     (network), %d wrong, %d undiagnosed\n"
    stats.sent stats.delivered
    (stats.sent - stats.delivered)
    stats.correct_node stats.correct_network stats.wrong stats.undiagnosed;
  let diagnosed = stats.correct_node + stats.correct_network + stats.wrong in
  if diagnosed > 0 then
    Printf.printf "diagnosis accuracy: %.1f%%\n"
      (100. *. float_of_int (stats.correct_node + stats.correct_network) /. float_of_int diagnosed);
  Printf.printf
    "control-plane bandwidth: %.0f B/s per node (probes + snapshot diffs + heavyweight bursts)\n"
    (Protocol.mean_control_bytes_per_second protocol ~horizon:duration);
  if observing then begin
    let filter = Export.filter_of_spec trace_filter in
    (match Trace.validate obs.Collector.trace with
    | Ok () -> ()
    | Error reason -> Printf.eprintf "trace validation failed: %s\n%!" reason);
    Option.iter
      (fun path ->
        Export.write_trace ~path ?filter obs.Collector.trace;
        Printf.printf "trace: %d records -> %s\n" (Trace.length obs.Collector.trace) path)
      trace_out;
    Option.iter
      (fun path ->
        Export.write_metrics ~path ~time:duration obs.Collector.metrics;
        Printf.printf "metrics -> %s\n" path)
      metrics_out
  end

open Cmdliner

let seed =
  Arg.(value & opt int64 7L & info [ "seed" ] ~doc:"Deterministic seed.")

let duration =
  Arg.(value & opt float 7200. & info [ "duration" ] ~doc:"Virtual seconds to simulate.")

let messages =
  Arg.(value & opt int 400 & info [ "messages" ] ~doc:"Messages to route during the run.")

let dropper_fraction =
  Arg.(
    value & opt float 0.1 & info [ "droppers" ] ~doc:"Fraction of nodes that drop messages.")

let drop_probability =
  Arg.(
    value & opt float 0.8
    & info [ "drop-probability" ] ~doc:"Per-message drop probability of a faulty node.")

let churn =
  Arg.(value & flag & info [ "churn" ] ~doc:"Model host availability churn (2h up / 10min down).")

let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every diagnosis.")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the diagnosis trace to $(docv): Chrome trace_event JSON when the name ends \
           in .json (load in chrome://tracing), JSONL otherwise.")

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write the metrics snapshot (counters, gauges, histograms) as JSON to $(docv).")

let trace_filter =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-filter" ] ~docv:"CATS"
        ~doc:
          "Keep only trace records in these comma-separated categories (e.g. \
           episode,probe,dht).")

let cmd =
  let doc = "Run the full Concilium protocol over a simulated deployment" in
  Cmd.v
    (Cmd.info "concilium-sim" ~doc)
    Term.(
      const run $ seed $ duration $ messages $ dropper_fraction $ drop_probability $ churn
      $ verbose $ trace_out $ metrics_out $ trace_filter)

let () = exit (Cmd.eval cmd)
