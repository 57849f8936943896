(* The end-to-end diagnosis benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 sets up the workload [setups] times (reporting the median
   set-up time), measures S seconds untraced and prints the end-to-end
   metrics. --trace 1 measures S seconds untraced, replays exactly the same
   work untraced and then traced, and prints the per-layer metrics, the
   layer-sum check and the tracing overhead. Either way the last line of standard output is
   one JSON object. The command exits 1 when a correctness gate fails: an
   outcome digest that differs from an earlier run of the same seed or
   between the runs of one invocation, or a layer sum outside its
   tolerance. *)

open Perfbench
module P = Protocol_workload
module S = Scale_workload
module Protocol = Concilium_core.Protocol
module Dht = Concilium_core.Dht
module Observation = Concilium_tomography.Observation
module Pool = Concilium_util.Pool

(* Set-ups per --trace 0 run: paper-burst's ~21 s world build fits twice
   in the run budget, the cheaper set-ups three times. *)
let setups workload = if workload = "paper-burst" then 2 else 3

(* Per-layer self times plus engine.other_s, judgment.unattributed_s and
   the benchmark's own calls must cover the traced measured wall to within
   this share; the residual is the measuring loop itself. *)
let layer_sum_tolerance = 0.02

type args = { workload : string; seed : int64; seconds : float; trace : bool }

let usage () =
  prerr_endline
    "usage: bench.exe --workload paper-burst|flow-accuse|scale-churn --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := Int64.of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace when seconds > 0. -> { workload; seed; seconds; trace }
  | _ -> usage ()

(* Every per-layer metric, in report order. A workload reports the ones
   its layers exercise; the rest read 0 on that workload. *)
let per_layer =
  [
    ("world.build_s", "s"); ("advert.exchange_s", "s"); ("advert.validations", "count");
    ("engine.steps", "count"); ("engine.other_s", "s"); ("probe.light_rounds", "count");
    ("probe.light_round_us", "us"); ("probe.light_s", "s"); ("probe.heavy_bursts", "count");
    ("probe.heavy_burst_self_us", "us"); ("minc.solves", "count"); ("minc.solve_us", "us");
    ("blame.evaluations", "count"); ("blame.evaluate_us", "us"); ("stewardship.resolve_us", "us");
    ("judgment.unattributed_s", "s"); ("probe.light_round_words", "words");
    ("probe.heavy_burst_self_words", "words"); ("minc.solve_words", "words");
    ("blame.evaluate_words", "words"); ("judgment.unattributed_words", "words");
    ("engine.other_words", "words"); ("observation.count", "count"); ("protocol.send_us", "us");
    ("overlay.route_us", "us"); ("dht.records", "count"); ("dht.gets", "count"); ("dht.get_us", "us");
    ("dht.accusations_read", "count"); ("blame.miss_fraction", "ratio"); ("routes_per_s", "1/s");
    ("churn_events_per_s", "1/s");
    ("inc_table.churn_event_us", "us"); ("inc_table.churn_event_words", "words");
    ("inc_table.writes_per_event", "count");
    ("inc_table.owners_per_event", "count"); ("scale.route_us", "us"); ("scale.route_hops", "count");
    ("pool.busy_s", "s"); ("pool.idle_s", "s"); ("pool.steal_wait_s", "s"); ("pool.steals", "count");
    ("gc.minor_words_per_op", "words"); ("gc.major_collections", "count");
    ("trace.overhead_fraction", "ratio"); ("layer_sum.residual_fraction", "ratio");
  ]

let layer_metrics values =
  List.iter (fun (name, _) -> if not (List.mem_assoc name per_layer) then invalid_arg name) values;
  List.map
    (fun (name, unit) -> Report.metric name unit (Option.value (List.assoc_opt name values) ~default:0.))
    per_layer

(* ---------- outcome ---------- *)

type result = { attempted : int; failed : int; metrics : Report.metric list; notes : string list }

let failures = ref []
let fail fmt = Printf.ksprintf (fun msg -> failures := msg :: !failures) fmt

let check_repeat ~workload ~seed checkpoints =
  match Digest_store.check_and_save ~workload ~seed checkpoints with
  | Ok () -> ()
  | Error msg -> fail "repeat-run digest mismatch: %s" msg

let check_replay ~what (untraced : Outcome.Digest.t) (traced : Outcome.Digest.t) =
  let same = Outcome.Digest.value untraced = Outcome.Digest.value traced in
  if not (same && Outcome.Digest.lines untraced = Outcome.Digest.lines traced) then
    fail "%s digest differs between the untraced (%d lines, %016Lx) and traced (%d lines, %016Lx) runs" what
      (Outcome.Digest.lines untraced) (Outcome.Digest.value untraced) (Outcome.Digest.lines traced)
      (Outcome.Digest.value traced)

let check_layer_sum ~wall ~parts =
  let covered = List.fold_left (fun acc (_, s) -> acc +. s) 0. parts in
  let residual = wall -. covered in
  let fraction = residual /. wall in
  let detail = String.concat " " (List.map (fun (name, s) -> Printf.sprintf "%s=%.4f" name s) parts) in
  let note =
    Printf.sprintf "layer-sum wall=%.4f s covered=%.4f s residual=%.4f s (%.3f%%, tolerance %.1f%%) %s" wall
      covered residual (100. *. fraction) (100. *. layer_sum_tolerance) detail
  in
  if Float.abs fraction > layer_sum_tolerance then fail "layer sum outside tolerance: %s" note;
  (fraction, note)

let gc_delta f =
  let before = Gc.quick_stat () in
  let result = f () in
  let after = Gc.quick_stat () in
  (result, after.Gc.minor_words -. before.Gc.minor_words, after.Gc.major_collections - before.Gc.major_collections)

(* Set up [count] times from scratch; keep the last instance. *)
let repeated_setup ~count setup =
  let times = Array.make count 0. in
  let last = ref None in
  for i = 0 to count - 1 do
    last := None;
    Gc.compact ();
    let instance, seconds = Host.timed setup in
    times.(i) <- seconds;
    last := Some instance
  done;
  (Option.get !last, Stats.median times)

let episode_metrics samples =
  let sorted = Stats.sorted samples in
  [
    Report.metric "episode_ms.p50" "ms" (Stats.value sorted Stats.p50);
    Report.metric "episode_ms.p90" "ms" (Stats.value sorted Stats.p90);
  ]

(* ---------- protocol workloads ---------- *)

let protocol_untraced spec args =
  let t, setup_s =
    repeated_setup ~count:(setups args.workload) (fun () ->
        P.create spec ~world:(P.build_world spec) ~seed:args.seed ~seconds:args.seconds ~traced:false)
  in
  Gc.compact ();
  let run = P.run_for t ~seconds:args.seconds in
  let tally = t.P.tally in
  check_repeat ~workload:args.workload ~seed:args.seed (Outcome.Digest.checkpoints tally.P.digest);
  let episode_ms = Array.of_list tally.P.episode_ms in
  {
    attempted = tally.P.resolved;
    failed = tally.P.failed;
    metrics =
      [
        Report.metric "setup_s" "s" setup_s;
        Report.metric "messages_per_s" "1/s" (float_of_int tally.P.resolved /. run.P.wall_s);
        Report.metric "episodes_per_s" "1/s" (float_of_int tally.P.episodes /. run.P.wall_s);
      ]
      @ episode_metrics episode_ms
      @ [
          Report.metric "virtual_s_per_wall_s" "s/s" (run.P.virtual_s /. run.P.wall_s);
          Report.metric "peak_rss_mb" "MB" (Host.peak_rss_mb ());
        ];
    notes =
      [
        Stats.describe ~name:"episode_ms" ~unit:"ms" episode_ms;
        Printf.sprintf
          "messages sent=%d resolved=%d delivered=%d diagnosed=%d missed=%d steps=%d virtual_s=%.1f wall_s=%.3f"
          tally.P.sent tally.P.resolved tally.P.delivered tally.P.episodes tally.P.missed run.P.steps run.P.virtual_s
          run.P.wall_s;
      ];
  }

(* What the traced run needs from the untraced one; the untraced instance
   itself is dropped before the traced one is built. *)
type untraced_summary = {
  run : P.run;
  digest : Outcome.Digest.t;
  resolved : int;
  failed : int;
  miss_fraction : float;
  minor_words : float;
  major_collections : int;
  observations : int;
  dht_records : int;
  exchange_s : float;
  validations : int;
}

let protocol_untraced_summary spec args world =
  let t = P.create spec ~world ~seed:args.seed ~seconds:args.seconds ~traced:false in
  Gc.compact ();
  let run, minor_words, major_collections = gc_delta (fun () -> P.run_for t ~seconds:args.seconds) in
  let tally = t.P.tally in
  {
    run;
    digest = tally.P.digest;
    resolved = tally.P.resolved;
    failed = tally.P.failed;
    miss_fraction = Report.per ~count:tally.P.episodes (float_of_int tally.P.missed);
    minor_words;
    major_collections;
    observations = Observation.count (Protocol.observations t.P.protocol);
    dht_records = Dht.total_records (Protocol.dht t.P.protocol);
    exchange_s = t.P.exchange_s;
    validations = t.P.validations;
  }

let median_us samples = 1e6 *. Stats.median (Array.of_list samples)

(* The untraced steps once more. The first run grows the heap, so this
   replay, not the first run, is the base of the tracing overhead; it is
   also a repeat of the seed within the run. *)
let protocol_replay spec args world ~steps ~digest =
  let t = P.create spec ~world ~seed:args.seed ~seconds:args.seconds ~traced:false in
  Gc.compact ();
  let run = P.run_steps t ~steps in
  check_replay ~what:"repeated untraced" digest t.P.tally.P.digest;
  run.P.wall_s

let protocol_traced spec args =
  let world, build_s = Host.timed (fun () -> P.build_world spec) in
  let u = protocol_untraced_summary spec args world in
  check_repeat ~workload:args.workload ~seed:args.seed (Outcome.Digest.checkpoints u.digest);
  let replay_s = protocol_replay spec args world ~steps:u.run.P.steps ~digest:u.digest in
  let t = P.create spec ~world ~seed:args.seed ~seconds:args.seconds ~traced:true in
  Gc.compact ();
  let run = P.run_steps t ~steps:u.run.P.steps in
  let tally = t.P.tally in
  check_replay ~what:"outcome" u.digest tally.P.digest;
  let tracer = Option.get t.P.tracer in
  if Steps.both_flags tracer > 0 then fail "%d steps classified twice" (Steps.both_flags tracer);
  if Steps.spans_outside_judgment tracer > 0 then
    fail "%d non-judgment steps held tracked spans" (Steps.spans_outside_judgment tracer);
  if Steps.open_spans tracer > 0 then fail "%d tracked spans left open" (Steps.open_spans tracer);
  let site = Steps.site tracer in
  let heavy = site "probe.heavy_burst" and minc = site "minc.solve" in
  let blame = site "blame.evaluate" and stewardship = site "stewardship.resolve" in
  let light_s = Steps.net_seconds tracer Steps.Light in
  let light_rounds = Steps.steps tracer Steps.Light in
  let other_s = Steps.net_seconds tracer Steps.Other in
  let unattributed_s = Steps.net_seconds tracer Steps.Judgment in
  let sum = List.fold_left ( +. ) 0. in
  let send_s = sum tally.P.send_s and route_s = sum tally.P.route_s in
  let overhead = (run.P.wall_s /. replay_s) -. 1. in
  let residual, layer_note =
    check_layer_sum ~wall:run.P.wall_s
      ~parts:
        [
          ("probe.light", light_s);
          ("probe.heavy_burst.self", heavy.Steps.self_s);
          ("minc.solve", minc.Steps.self_s);
          ("blame.evaluate", blame.Steps.self_s);
          ("stewardship.resolve", stewardship.Steps.self_s);
          ("judgment.unattributed", unattributed_s);
          ("engine.other", other_s);
          ("bench.send_message", send_s);
          ("bench.overlay_route", route_s);
          ("bench.fetch_accusations", tally.P.dht_get_s);
        ]
  in
  let us total count = 1e6 *. Report.per ~count total in
  let judgments = Steps.steps tracer Steps.Judgment and others = Steps.steps tracer Steps.Other in
  let layers =
    [
      ("world.build_s", build_s);
      ("advert.exchange_s", u.exchange_s);
      ("advert.validations", float_of_int u.validations);
      ("engine.steps", float_of_int (Steps.total_steps tracer));
      ("engine.other_s", other_s);
      ("probe.light_rounds", float_of_int light_rounds);
      ("probe.light_round_us", us light_s light_rounds);
      ("probe.light_s", light_s);
      ("probe.heavy_bursts", float_of_int heavy.Steps.count);
      ("probe.heavy_burst_self_us", us heavy.Steps.self_s heavy.Steps.count);
      ("minc.solves", float_of_int minc.Steps.count);
      ("minc.solve_us", us minc.Steps.total_s minc.Steps.count);
      ("blame.evaluations", float_of_int blame.Steps.count);
      ("blame.evaluate_us", us blame.Steps.total_s blame.Steps.count);
      ("stewardship.resolve_us", us stewardship.Steps.total_s stewardship.Steps.count);
      ("judgment.unattributed_s", unattributed_s);
      ("probe.light_round_words", Report.per ~count:light_rounds (Steps.net_words tracer Steps.Light));
      ("probe.heavy_burst_self_words", Report.per ~count:heavy.Steps.count heavy.Steps.self_words);
      ("minc.solve_words", Report.per ~count:minc.Steps.count minc.Steps.self_words);
      ("blame.evaluate_words", Report.per ~count:blame.Steps.count blame.Steps.self_words);
      ("judgment.unattributed_words", Report.per ~count:judgments (Steps.net_words tracer Steps.Judgment));
      ("engine.other_words", Report.per ~count:others (Steps.net_words tracer Steps.Other));
      ("observation.count", float_of_int u.observations);
      ("protocol.send_us", median_us tally.P.send_s);
      ("overlay.route_us", median_us tally.P.route_s);
      ("dht.records", float_of_int u.dht_records);
      ("dht.gets", float_of_int tally.P.dht_gets);
      ("dht.get_us", us tally.P.dht_get_s tally.P.dht_gets);
      ("dht.accusations_read", float_of_int tally.P.accusations_read);
      ("blame.miss_fraction", u.miss_fraction);
      ("gc.minor_words_per_op", Report.per ~count:u.resolved u.minor_words);
      ("gc.major_collections", float_of_int u.major_collections);
      ("trace.overhead_fraction", overhead);
      ("layer_sum.residual_fraction", residual);
    ]
  in
  {
    attempted = u.resolved;
    failed = u.failed;
    metrics = layer_metrics layers;
    notes =
      [
        layer_note;
        Printf.sprintf "steps light=%d judgment=%d other=%d (untraced %d)" light_rounds judgments others
          u.run.P.steps;
        Printf.sprintf "trace overhead: traced %.4f s vs untraced replay %.4f s for the same %d steps"
          run.P.wall_s replay_s u.run.P.steps;
      ];
  }

(* ---------- scale-churn ---------- *)

let scale_e2e (run : S.run) ~setup_s =
  [
    Report.metric "setup_s" "s" setup_s;
    Report.metric "messages_per_s" "1/s" (float_of_int run.S.routes /. run.S.wall_s);
    Report.metric "episodes_per_s" "1/s" (float_of_int run.S.episodes /. run.S.wall_s);
  ]
  @ episode_metrics run.S.episode_ms
  @ [
      Report.metric "virtual_s_per_wall_s" "s/s" (run.S.virtual_s /. run.S.wall_s);
      Report.metric "peak_rss_mb" "MB" (Host.peak_rss_mb ());
    ]

let phase_rates (run : S.run) =
  [
    Report.metric "routes_per_s" "1/s" (float_of_int run.S.routes /. run.S.route_s);
    Report.metric "churn_events_per_s" "1/s" (float_of_int run.S.events /. run.S.churn_s);
  ]

let scale_notes (run : S.run) =
  [
    Stats.describe ~name:"episode_ms" ~unit:"ms" run.S.episode_ms;
    Printf.sprintf "episodes=%d routes=%d delivered=%d churn_events=%d virtual_s=%.1f wall_s=%.3f" run.S.episodes
      run.S.routes run.S.delivered run.S.events run.S.virtual_s run.S.wall_s;
  ]

let scale_untraced pool args =
  let world, setup_s = repeated_setup ~count:(setups args.workload) (fun () -> S.build ~pool ~seed:args.seed) in
  Gc.compact ();
  let run = S.run_for world ~pool ~seconds:args.seconds in
  check_repeat ~workload:args.workload ~seed:args.seed (Outcome.Digest.checkpoints run.S.transcript);
  {
    attempted = run.S.routes;
    failed = run.S.routes - run.S.delivered;
    metrics = scale_e2e run ~setup_s;
    notes = List.map Report.line (phase_rates run) @ scale_notes run;
  }

let scale_traced pool args =
  let world, build_s = Host.timed (fun () -> S.build ~pool ~seed:args.seed) in
  Pool.reset_stats pool;
  Gc.compact ();
  let u, minor_words, major_collections = gc_delta (fun () -> S.run_for world ~pool ~seconds:args.seconds) in
  let pool_stats = Pool.stats pool in
  check_repeat ~workload:args.workload ~seed:args.seed (Outcome.Digest.checkpoints u.S.transcript);
  let replay episodes ~traced =
    let world = S.build ~pool ~seed:args.seed in
    Gc.compact ();
    S.run_episodes world ~pool ~episodes ~traced
  in
  (* As on the protocol workloads, a warm untraced replay is the base of
     the tracing overhead and a repeat of the seed. *)
  let r = replay u.S.episodes ~traced:false in
  check_replay ~what:"repeated untraced transcript" u.S.transcript r.S.transcript;
  let t = replay u.S.episodes ~traced:true in
  check_replay ~what:"transcript" u.S.transcript t.S.transcript;
  let residual, layer_note =
    check_layer_sum ~wall:t.S.wall_s ~parts:[ ("inc_table.step_event", t.S.churn_s); ("scale.run_episode", t.S.route_s) ]
  in
  let pool_sum f = List.fold_left (fun acc w -> acc +. f w) 0. pool_stats in
  let rates = List.map (fun m -> (m.Report.name, m.Report.value)) (phase_rates u) in
  let layers =
    [
      ("world.build_s", build_s);
      ("inc_table.churn_event_us", 1e6 *. Report.per ~count:t.S.events t.S.churn_s);
      ("inc_table.churn_event_words", Report.per ~count:t.S.events t.S.churn_words);
      ("inc_table.writes_per_event", Report.per ~count:t.S.maintained (float_of_int t.S.writes));
      ("inc_table.owners_per_event", Report.per ~count:t.S.maintained (float_of_int t.S.owners));
      ("scale.route_us", 1e6 *. Report.per ~count:t.S.routes t.S.route_s);
      ("scale.route_hops", Report.per ~count:t.S.routes (float_of_int t.S.hops));
      ("pool.busy_s", pool_sum (fun w -> w.Pool.busy_s));
      ("pool.idle_s", pool_sum (fun w -> w.Pool.idle_s));
      ("pool.steal_wait_s", pool_sum (fun w -> w.Pool.steal_wait_s));
      ("pool.steals", pool_sum (fun w -> float_of_int w.Pool.steals));
      ("gc.minor_words_per_op", Report.per ~count:u.S.routes minor_words);
      ("gc.major_collections", float_of_int major_collections);
      ("trace.overhead_fraction", (t.S.wall_s /. r.S.wall_s) -. 1.);
      ("layer_sum.residual_fraction", residual);
    ]
    @ rates
  in
  {
    attempted = u.S.routes;
    failed = u.S.routes - u.S.delivered;
    metrics = layer_metrics layers;
    notes = layer_note :: scale_notes t;
  }

(* ---------- main ---------- *)

let () =
  let args = parse_args () in
  let pool_domains, run =
    match args.workload with
    | "paper-burst" -> (1, fun () -> (if args.trace then protocol_traced else protocol_untraced) P.paper_burst args)
    | "flow-accuse" -> (1, fun () -> (if args.trace then protocol_traced else protocol_untraced) P.flow_accuse args)
    | "scale-churn" ->
        ( S.domains,
          fun () ->
            Pool.with_pool ~domains:S.domains (fun pool ->
                (if args.trace then scale_traced else scale_untraced) pool args) )
    | _ -> usage ()
  in
  print_endline (Host.stamp ~pool_domains);
  let result = run () in
  List.iter print_endline result.notes;
  List.iter (fun m -> print_endline (Report.line m)) result.metrics;
  Printf.printf "ops attempted=%d failed=%d\n" result.attempted result.failed;
  let correct = !failures = [] in
  List.iter (fun msg -> Printf.eprintf "perfbench: %s\n" msg) (List.rev !failures);
  print_endline (Report.json ~correct ~attempted:result.attempted ~failed:result.failed result.metrics);
  if not correct then exit 1
