(* Scaling driver: build 10k/100k/1M-node worlds, route episode workloads
   under sustained churn, and measure build / route / churn-step costs plus
   the incremental-vs-rebuild maintenance ratio.

   All wall-clock measurement lives here, not in lib/ (determinism lint).
   The --transcript file receives only deterministic, replayable lines
   (checksums, digests, counts) so CI can diff --domains 1 vs --domains 2
   byte-for-byte; timings go to --json, which is never diffed. *)

module Scale_world = Concilium_scale.Scale_world
module Inc_table = Concilium_overlay.Inc_table
module Pool = Concilium_util.Pool
module Json = Concilium_util.Json
module Collector = Concilium_obs.Collector
module Export = Concilium_obs.Export
module Flight = Concilium_obs.Flight

(* This driver is the one place that measures wall-clock cost; nothing it
   times feeds back into simulation state.  lint: allow wall-clock *)
let now () = Unix.gettimeofday ()

(* "10k,100k,1M" / "1_000_000" / "4096" -> sizes. *)
let parse_sizes spec =
  let parse_one raw =
    let cleaned = String.concat "" (String.split_on_char '_' (String.trim raw)) in
    if cleaned = "" then invalid_arg "empty size";
    let last = cleaned.[String.length cleaned - 1] in
    let body multiplier = String.sub cleaned 0 (String.length cleaned - 1) |> int_of_string |> ( * ) multiplier in
    match last with
    | 'k' | 'K' -> body 1_000
    | 'm' | 'M' -> body 1_000_000
    | _ -> int_of_string cleaned
  in
  List.map parse_one (String.split_on_char ',' spec)

let proc_status_kb field =
  try
    let ic = open_in "/proc/self/status" in
    let rec scan () =
      match input_line ic with
      | line ->
          if String.length line > String.length field && String.sub line 0 (String.length field) = field
          then begin
            close_in ic;
            Scanf.sscanf (String.sub line (String.length field) (String.length line - String.length field))
              " %d kB" (fun kb -> Some kb)
          end
          else scan ()
      | exception End_of_file ->
          close_in ic;
          None
    in
    scan ()
  with Sys_error _ -> None

let rss_mb () = match proc_status_kb "VmRSS:" with Some kb -> kb / 1024 | None -> -1
let hwm_mb () = match proc_status_kb "VmHWM:" with Some kb -> kb / 1024 | None -> -1

type run_result = {
  protocol : Scale_world.protocol;
  nodes : int;
  build_s : float;
  churn_events_applied : int;
  churn_event_us : float;
  route_us : float;
  routes : int;
  delivered : int;
  mean_hops : float;
  (* Pastry maintenance accounting; zeros for Chord. *)
  maint_events : int;
  maint_owners : int;
  maint_writes : int;
  rebuild_owner_us : float;
  rebuild_per_event_us : float;
  incremental_speedup : float;
  stale_slots : int;
  rss_after_mb : int;
}

let run_one ~protocol ~nodes ~seed ~pool ~obs ~episodes ~routes_per_episode ~churn_events buf =
  Gc.compact ();
  let config = Scale_world.config ~protocol ~nodes ~seed () in
  let t0 = now () in
  let world = Scale_world.build ?pool config in
  let build_s = now () -. t0 in
  Buffer.add_string buf (Scale_world.header_line world);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Scale_world.state_line world);
  Buffer.add_char buf '\n';
  let churn_time = ref 0. and churn_applied = ref 0 in
  let route_time = ref 0. and routed = ref 0 and delivered = ref 0 and hops = ref 0 in
  let chunk = max 1 (churn_events / max 1 episodes) in
  for episode = 1 to episodes do
    (* Sustained churn: a timed slice of the timeline between episodes. *)
    let t0 = now () in
    let stepped = ref 0 in
    while !stepped < chunk && Scale_world.step_event world do
      incr stepped
    done;
    churn_time := !churn_time +. (now () -. t0);
    churn_applied := !churn_applied + !stepped;
    Buffer.add_string buf (Scale_world.state_line world);
    Buffer.add_char buf '\n';
    let t0 = now () in
    let result = Scale_world.run_episode ?pool ~obs world ~episode ~routes:routes_per_episode in
    route_time := !route_time +. (now () -. t0);
    routed := !routed + result.Scale_world.routes;
    delivered := !delivered + result.Scale_world.delivered;
    hops := !hops + result.Scale_world.total_hops;
    Buffer.add_string buf (Scale_world.episode_line ~episode result);
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf (Scale_world.maintenance_line world);
  Buffer.add_char buf '\n';
  (* Price the deltas against the full-rebuild oracle: what would each
     churn event have cost if every affected owner's table were rebuilt
     from scratch instead? *)
  let maint_events, maint_owners, maint_writes, rebuild_owner_us, stale_slots =
    match Scale_world.table world with
    | None -> (0, 0, 0, 0., 0)
    | Some table ->
        let sample = min 64 nodes in
        let stride = max 1 (nodes / sample) in
        let t0 = now () in
        let stale = ref 0 and sampled = ref 0 in
        let owner = ref 0 in
        while !owner < nodes do
          stale := !stale + Inc_table.rebuild_owner table !owner;
          incr sampled;
          owner := !owner + stride
        done;
        let per_owner = (now () -. t0) /. float_of_int (max 1 !sampled) *. 1e6 in
        ( Inc_table.events table,
          Inc_table.total_owners table,
          Inc_table.total_writes table,
          per_owner,
          !stale )
  in
  let churn_event_us =
    if !churn_applied = 0 then 0. else !churn_time /. float_of_int !churn_applied *. 1e6
  in
  let owners_per_event =
    if maint_events = 0 then 0. else float_of_int maint_owners /. float_of_int maint_events
  in
  let rebuild_per_event_us = owners_per_event *. rebuild_owner_us in
  let incremental_speedup =
    if churn_event_us > 0. then rebuild_per_event_us /. churn_event_us else 0.
  in
  {
    protocol;
    nodes;
    build_s;
    churn_events_applied = !churn_applied;
    churn_event_us;
    route_us = (if !routed = 0 then 0. else !route_time /. float_of_int !routed *. 1e6);
    routes = !routed;
    delivered = !delivered;
    mean_hops = (if !routed = 0 then 0. else float_of_int !hops /. float_of_int !routed);
    maint_events;
    maint_owners;
    maint_writes;
    rebuild_owner_us;
    rebuild_per_event_us;
    incremental_speedup;
    stale_slots;
    rss_after_mb = rss_mb ();
  }

let emit_json buf ~seed ~domains results =
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"host\": { \"cores\": %d, \"ocaml\": %s },\n" (Pool.default_domains ())
       (Json.quote Sys.ocaml_version));
  Buffer.add_string buf (Printf.sprintf "  \"domains\": %d,\n" domains);
  Buffer.add_string buf (Printf.sprintf "  \"seed\": %Ld,\n" seed);
  Buffer.add_string buf "  \"runs\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"protocol\": \"%s\", \"nodes\": %d, \"build_s\": %.4f, \
            \"churn_events\": %d, \"churn_event_us\": %.3f, \"route_us\": %.3f, \
            \"routes\": %d, \"delivered\": %d, \"mean_hops\": %.3f, \
            \"maintenance\": {\"events\": %d, \"owners\": %d, \"writes\": %d, \
            \"stale_slots\": %d}, \"rebuild_owner_us\": %.3f, \
            \"rebuild_per_event_us\": %.3f, \"incremental_speedup\": %.2f, \
            \"rss_after_mb\": %d}"
           (Scale_world.protocol_name r.protocol)
           r.nodes r.build_s r.churn_events_applied r.churn_event_us r.route_us r.routes
           r.delivered r.mean_hops r.maint_events r.maint_owners r.maint_writes
           r.stale_slots r.rebuild_owner_us r.rebuild_per_event_us r.incremental_speedup
           r.rss_after_mb))
    results;
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf (Printf.sprintf "  \"vm_hwm_mb\": %d\n" (hwm_mb ()));
  Buffer.add_string buf "}\n"

let run protocol_spec sizes_spec seed domains episodes routes churn_events transcript json_out
    metrics_out trace_out flight_out rss_ceiling_mb =
  let sizes =
    match parse_sizes sizes_spec with
    | sizes -> sizes
    | exception _ ->
        Printf.eprintf "scale: cannot parse --nodes %S\n" sizes_spec;
        exit 2
  in
  let protocols =
    match protocol_spec with
    | "pastry" -> [ Scale_world.Pastry ]
    | "chord" -> [ Scale_world.Chord ]
    | "both" -> [ Scale_world.Pastry; Scale_world.Chord ]
    | other ->
        Printf.eprintf "scale: unknown --protocol %S (pastry|chord|both)\n" other;
        exit 2
  in
  let pool = Option.map (fun domains -> Pool.create ~domains ()) domains in
  (* One collector for the whole sweep: every record lands in the
     sequential aggregation pass, so a single shard is already
     deterministic for any --domains value (harness symmetry with
     chaos.exe's --metrics/--trace). *)
  let obs =
    if metrics_out = None && trace_out = None && flight_out = None then Collector.noop
    else Collector.create ()
  in
  let flight =
    Option.map
      (fun _ ->
        let flight = Flight.create () in
        Flight.attach flight obs;
        flight)
      flight_out
  in
  let buf = Buffer.create 4096 in
  let results =
    List.concat_map
      (fun nodes ->
        List.map
          (fun protocol ->
            let r =
              run_one ~protocol ~nodes ~seed ~pool ~obs ~episodes ~routes_per_episode:routes
                ~churn_events buf
            in
            Printf.printf
              "%-6s n=%-9d build %7.2fs  churn %8.2fus/event  route %8.2fus  hops %5.2f  \
               delivered %d/%d  speedup %6.1fx  rss %dMB\n%!"
              (Scale_world.protocol_name protocol)
              nodes r.build_s r.churn_event_us r.route_us r.mean_hops r.delivered r.routes
              r.incremental_speedup r.rss_after_mb;
            r)
          protocols)
      sizes
  in
  Option.iter Pool.shutdown pool;
  Option.iter (fun path -> Export.write_file ~path (Buffer.contents buf)) transcript;
  Option.iter
    (fun path ->
      let jbuf = Buffer.create 4096 in
      emit_json jbuf ~seed ~domains:(Option.fold ~none:1 ~some:Pool.domain_count pool) results;
      Export.write_file ~path (Buffer.contents jbuf))
    json_out;
  Option.iter (fun path -> Export.write_metrics ~path obs.Collector.metrics) metrics_out;
  Option.iter (fun path -> Export.write_trace ~path obs.Collector.trace) trace_out;
  let dump_flight reason =
    match (flight, flight_out) with
    | Some flight, Some path -> Flight.write ~path ~reason flight
    | _ -> ()
  in
  let stale = List.fold_left (fun acc r -> acc + r.stale_slots) 0 results in
  if stale > 0 then begin
    Printf.eprintf "scale: %d stale slots disagree with the rebuild oracle\n" stale;
    dump_flight (Printf.sprintf "stale-slots: %d" stale);
    exit 1
  end;
  (match rss_ceiling_mb with
  | Some ceiling ->
      let hwm = hwm_mb () in
      if hwm > ceiling then begin
        Printf.eprintf "scale: peak RSS %dMB exceeds ceiling %dMB\n" hwm ceiling;
        dump_flight (Printf.sprintf "rss-ceiling: %dMB > %dMB" hwm ceiling);
        exit 1
      end
  | None -> ());
  0

open Cmdliner

let protocol =
  Arg.(
    value & opt string "both"
    & info [ "protocol" ] ~docv:"P" ~doc:"Overlay protocol: pastry, chord, or both.")

let nodes =
  Arg.(
    value & opt string "10k"
    & info [ "nodes" ] ~docv:"SIZES"
        ~doc:
          "Comma-separated world sizes; accepts k/M suffixes and underscores \
           (e.g. 10k,100k,1M or 1_000_000).")

let seed = Arg.(value & opt int64 42L & info [ "seed" ] ~doc:"Deterministic seed.")

let domains =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Domains for the sweep-build and episode fan-outs (default: inline). The \
           transcript is byte-identical for any value.")

let episodes =
  Arg.(value & opt int 3 & info [ "episodes" ] ~docv:"N" ~doc:"Episode batches per world.")

let routes =
  Arg.(value & opt int 500 & info [ "routes" ] ~docv:"N" ~doc:"Routes per episode.")

let churn_events =
  Arg.(
    value & opt int 1500
    & info [ "churn-events" ] ~docv:"N"
        ~doc:"Total churn events to apply per world (split across episodes).")

let transcript =
  Arg.(
    value
    & opt (some string) None
    & info [ "transcript" ] ~docv:"FILE"
        ~doc:"Write the deterministic transcript (checksums, digests; no timings) to $(docv).")

let json_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Write timing results as JSON to $(docv).")

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the metrics snapshot (route counters, hop histogram) as JSON to $(docv). \
           Byte-identical for any --domains value.")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the episode trace to $(docv): Chrome trace_event JSON for .json names, \
           JSONL otherwise. Byte-identical for any --domains value.")

let flight_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight" ] ~docv:"FILE"
        ~doc:
          "Arm a flight recorder over the episode trace and dump its ring to $(docv) if \
           the run fails (stale slots or a blown RSS ceiling). No file on a green run.")

let rss_ceiling =
  Arg.(
    value
    & opt (some int) None
    & info [ "rss-ceiling-mb" ] ~docv:"MB"
        ~doc:"Fail (exit 1) if peak RSS (VmHWM) exceeds $(docv) megabytes.")

let cmd =
  let doc = "Scaling bench: flat-array worlds at 10k/100k/1M with incremental tables" in
  Cmd.v (Cmd.info "scale" ~doc)
    Term.(
      const run $ protocol $ nodes $ seed $ domains $ episodes $ routes $ churn_events
      $ transcript $ json_out $ metrics_out $ trace_out $ flight_out $ rss_ceiling)

let () = exit (Cmd.eval' cmd)
