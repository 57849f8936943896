module Engine = Concilium_netsim.Engine
module Link_state = Concilium_netsim.Link_state
module Link_history = Concilium_netsim.Link_history
module Failures = Concilium_netsim.Failures
module Graph = Concilium_topology.Graph
module Generate = Concilium_topology.Generate
module Routes = Concilium_topology.Routes
module Prng = Concilium_util.Prng

let check = Alcotest.check

(* ---------- Engine ---------- *)

let test_engine_time_order () =
  let engine = Engine.create () in
  let log = ref [] in
  Engine.schedule_at engine ~time:3. (fun _ -> log := 3 :: !log);
  Engine.schedule_at engine ~time:1. (fun _ -> log := 1 :: !log);
  Engine.schedule_at engine ~time:2. (fun _ -> log := 2 :: !log);
  Engine.run engine;
  check (Alcotest.list Alcotest.int) "order" [ 1; 2; 3 ] (List.rev !log);
  check (Alcotest.float 1e-9) "clock at last event" 3. (Engine.now engine)

let test_engine_fifo_same_time () =
  let engine = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule_at engine ~time:1. (fun _ -> log := i :: !log)
  done;
  Engine.run engine;
  check (Alcotest.list Alcotest.int) "fifo ties" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_run_until () =
  let engine = Engine.create () in
  let fired = ref 0 in
  Engine.schedule_at engine ~time:1. (fun _ -> incr fired);
  Engine.schedule_at engine ~time:5. (fun _ -> incr fired);
  Engine.run_until engine 2.;
  check Alcotest.int "only early event" 1 !fired;
  check (Alcotest.float 1e-9) "clock at horizon" 2. (Engine.now engine);
  check Alcotest.int "late event queued" 1 (Engine.pending engine);
  Engine.run_until engine 10.;
  check Alcotest.int "late event fired" 2 !fired

let test_engine_nested_scheduling () =
  let engine = Engine.create () in
  let log = ref [] in
  Engine.schedule_at engine ~time:1. (fun engine ->
      log := "outer" :: !log;
      Engine.schedule engine ~delay:0.5 (fun _ -> log := "inner" :: !log));
  Engine.run engine;
  check (Alcotest.list Alcotest.string) "nested" [ "outer"; "inner" ] (List.rev !log)

let test_engine_rejects_past () =
  let engine = Engine.create () in
  Engine.run_until engine 10.;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: time is in the past")
    (fun () -> Engine.schedule_at engine ~time:5. (fun _ -> ()))

let test_engine_rejects_nan_and_negative () =
  let engine = Engine.create () in
  Alcotest.check_raises "NaN time" (Invalid_argument "Engine.schedule_at: NaN time") (fun () ->
      Engine.schedule_at engine ~time:Float.nan (fun _ -> ()));
  Alcotest.check_raises "NaN delay" (Invalid_argument "Engine.schedule: NaN delay") (fun () ->
      Engine.schedule engine ~delay:Float.nan (fun _ -> ()));
  Alcotest.check_raises "negative delay" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> Engine.schedule engine ~delay:(-1.) (fun _ -> ()));
  (* A rejected event must not corrupt the heap for later valid ones. *)
  let fired = ref 0 in
  Engine.schedule engine ~delay:1. (fun _ -> incr fired);
  Engine.run engine;
  check Alcotest.int "heap intact after rejections" 1 !fired

(* ---------- Link_state ---------- *)

let test_link_state_transitions () =
  let s = Link_state.create ~link_count:4 ~good_loss:0.01 ~bad_loss:0.9 in
  check Alcotest.int "initially good" 0 (Link_state.bad_count s);
  Link_state.set_bad s 2;
  Link_state.set_bad s 2;
  check Alcotest.int "idempotent set_bad" 1 (Link_state.bad_count s);
  check (Alcotest.float 1e-9) "bad loss" 0.9 (Link_state.loss_rate s 2);
  check (Alcotest.float 1e-9) "good loss" 0.01 (Link_state.loss_rate s 0);
  check Alcotest.bool "path check" false (Link_state.path_is_good s [| 0; 2 |]);
  Link_state.set_good s 2;
  check Alcotest.int "repaired" 0 (Link_state.bad_count s);
  check Alcotest.bool "path good" true (Link_state.path_is_good s [| 0; 2 |])

(* ---------- Link_history ---------- *)

let test_history_queries () =
  let h = Link_history.create ~link_count:3 in
  Link_history.add_interval h ~link:1 ~start:10. ~finish:20.;
  Link_history.add_interval h ~link:1 ~start:15. ~finish:30.;
  check Alcotest.bool "inside" true (Link_history.is_bad_at h ~link:1 ~time:12.);
  check Alcotest.bool "overlap region" true (Link_history.is_bad_at h ~link:1 ~time:25.);
  check Alcotest.bool "before" false (Link_history.is_bad_at h ~link:1 ~time:9.9);
  check Alcotest.bool "after (half-open)" false (Link_history.is_bad_at h ~link:1 ~time:30.);
  check Alcotest.bool "other link" false (Link_history.is_bad_at h ~link:0 ~time:12.);
  check
    (Alcotest.list (Alcotest.pair (Alcotest.float 0.) (Alcotest.float 0.)))
    "merged" [ (10., 30.) ] (Link_history.intervals h ~link:1);
  check (Alcotest.float 1e-9) "fraction" 0.5
    (Link_history.bad_fraction_at h ~time:12. ~relevant:[| 0; 1 |])

let test_history_replay () =
  let h = Link_history.create ~link_count:2 in
  Link_history.add_interval h ~link:0 ~start:5. ~finish:10.;
  Link_history.add_interval h ~link:1 ~start:8. ~finish:12.;
  let engine = Engine.create () in
  let state = Link_state.create ~link_count:2 ~good_loss:0. ~bad_loss:1. in
  Link_history.replay h ~engine ~state ~horizon:100.;
  Engine.run_until engine 6.;
  check Alcotest.bool "link 0 down at 6" true (Link_state.is_bad state 0);
  check Alcotest.bool "link 1 up at 6" false (Link_state.is_bad state 1);
  Engine.run_until engine 11.;
  check Alcotest.bool "link 0 repaired" false (Link_state.is_bad state 0);
  check Alcotest.bool "link 1 down" true (Link_state.is_bad state 1);
  Engine.run_until engine 20.;
  check Alcotest.int "all repaired" 0 (Link_state.bad_count state)

(* ---------- Failures ---------- *)

let failure_fixture seed =
  let world = Generate.generate (Generate.tiny ~seed) in
  let g = world.Generate.graph in
  let hosts = Graph.end_hosts g in
  let rng = Prng.of_seed seed in
  let routes =
    Array.init 40 (fun _ ->
        let source = hosts.(Prng.int rng (Array.length hosts)) in
        let target = hosts.(Prng.int rng (Array.length hosts)) in
        Routes.shortest_path g ~source ~target)
    |> Array.to_list |> List.filter_map Fun.id
    |> List.filter (fun p -> Routes.hop_count p > 0)
    |> Array.of_list
  in
  (g, routes)

let test_failures_steady_state () =
  let g, routes = failure_fixture 11L in
  let rng = Prng.of_seed 12L in
  let duration = 36_000. in
  let failures =
    Failures.generate ~rng ~config:Failures.paper_config ~link_count:(Graph.link_count g)
      ~routes ~duration
  in
  let mean = Failures.mean_bad_fraction failures ~duration ~samples:100 in
  check Alcotest.bool
    (Printf.sprintf "mean bad fraction %.3f within [0.02, 0.09]" mean)
    true
    (mean > 0.02 && mean < 0.09);
  check Alcotest.bool "produced failures" true (failures.Failures.failure_events > 0)

let test_failures_only_touch_relevant_links () =
  let g, routes = failure_fixture 13L in
  let rng = Prng.of_seed 14L in
  let failures =
    Failures.generate ~rng ~config:Failures.paper_config ~link_count:(Graph.link_count g)
      ~routes ~duration:7200.
  in
  let relevant = failures.Failures.relevant_links in
  let is_relevant link = Array.exists (( = ) link) relevant in
  for link = 0 to Graph.link_count g - 1 do
    if not (is_relevant link) then
      check Alcotest.bool "irrelevant link untouched" true
        (Link_history.intervals failures.Failures.history ~link = [])
  done

let test_failures_edge_bias () =
  (* Beta(0.9, 0.6) puts most mass near the ends of a route. On DISJOINT
     paths (no link sharing to confound per-link counts), the mean per-link
     failure count at the route ends must exceed the interior's. *)
  let chains = 12 and chain_length = 10 in
  let b = Graph.Builder.create (chains * (chain_length + 1)) in
  for chain = 0 to chains - 1 do
    let base = chain * (chain_length + 1) in
    for i = 0 to chain_length - 1 do
      Graph.Builder.add_link b (base + i) (base + i + 1)
    done
  done;
  let g = Graph.build b in
  let routes =
    Array.init chains (fun chain ->
        let base = chain * (chain_length + 1) in
        Option.get (Routes.shortest_path g ~source:base ~target:(base + chain_length)))
  in
  let rng = Prng.of_seed 16L in
  let failures =
    Failures.generate ~rng ~config:Failures.paper_config ~link_count:(Graph.link_count g)
      ~routes ~duration:144_000.
  in
  let count link = List.length (Link_history.intervals failures.Failures.history ~link) in
  let edge = ref 0 and interior = ref 0 in
  Array.iter
    (fun path ->
      let links = path.Routes.links in
      let n = Array.length links in
      edge := !edge + count links.(0) + count links.(n - 1);
      for i = 1 to n - 2 do
        interior := !interior + count links.(i)
      done)
    routes;
  let edge_rate = float_of_int !edge /. float_of_int (2 * chains) in
  let interior_rate = float_of_int !interior /. float_of_int ((chain_length - 2) * chains) in
  check Alcotest.bool
    (Printf.sprintf "edge rate %.2f exceeds interior rate %.2f" edge_rate interior_rate)
    true
    (edge_rate > interior_rate)

(* ---------- Churn ---------- *)

module Churn = Concilium_netsim.Churn

let test_churn_steady_state () =
  let rng = Prng.of_seed 50L in
  let churn = Churn.generate ~rng ~hosts:300 ~duration:20_000. in
  (* 2 h up / 10 min down: steady state is 7200 / 7800 = 92.3% online. *)
  let mean = Churn.mean_online_fraction churn ~duration:20_000. ~samples:40 in
  check Alcotest.bool (Printf.sprintf "mean online %.3f near 0.923" mean) true
    (mean > 0.9 && mean < 0.95)

let test_churn_transitions_consistent () =
  let rng = Prng.of_seed 51L in
  let churn = Churn.generate ~rng ~hosts:10 ~duration:50_000. in
  for host = 0 to 9 do
    List.iter
      (fun (time, became_online) ->
        (* Just after a transition the queried state matches the event. *)
        check Alcotest.bool "state after transition" became_online
          (Churn.is_online churn ~host ~time:(time +. 0.001)))
      (Churn.transitions churn ~host)
  done

let test_churn_transitions_chronological_and_alternating () =
  let rng = Prng.of_seed 53L in
  let duration = 40_000. in
  let churn = Churn.generate ~rng ~hosts:20 ~duration in
  let any = ref false in
  for host = 0 to 19 do
    let transitions = Churn.transitions churn ~host in
    if transitions <> [] then any := true;
    (* Chronological and clipped to the horizon. *)
    let times = List.map fst transitions in
    check (Alcotest.list (Alcotest.float 1e-9)) "sorted times"
      (List.sort Float.compare times) times;
    List.iter
      (fun time ->
        check Alcotest.bool "within horizon" true (time >= 0. && time <= duration))
      times;
    (* Strictly alternating on/off: two consecutive same-direction events
       would mean a lost interval boundary. *)
    ignore
      (List.fold_left
         (fun previous (_, became_online) ->
           (match previous with
           | Some p -> check Alcotest.bool "alternates" (not p) became_online
           | None -> ());
           Some became_online)
         None transitions)
  done;
  check Alcotest.bool "fixture produced transitions" true !any

let test_failures_target_across_seeds () =
  (* Steady-state validation: the time-averaged bad fraction stays within
     20% of the configured target for several independent seeds. *)
  let target = Failures.paper_config.Failures.target_bad_fraction in
  List.iter
    (fun seed ->
      let g, routes = failure_fixture seed in
      let rng = Prng.of_seed (Int64.add seed 1000L) in
      let duration = 72_000. in
      let failures =
        Failures.generate ~rng ~config:Failures.paper_config
          ~link_count:(Graph.link_count g) ~routes ~duration
      in
      let mean = Failures.mean_bad_fraction failures ~duration ~samples:400 in
      check Alcotest.bool
        (Printf.sprintf "seed %Ld: mean %.4f within 20%% of %.2f" seed mean target)
        true
        (Float.abs (mean -. target) <= 0.2 *. target))
    [ 21L; 22L; 23L; 24L; 25L ]

let test_churn_mostly_online_default () =
  let rng = Prng.of_seed 52L in
  let churn = Churn.generate ~rng ~hosts:200 ~duration:36_000. in
  let mean = Churn.mean_online_fraction churn ~duration:36_000. ~samples:30 in
  (* 2h up / 10min down: steady state ~92% online. *)
  check Alcotest.bool (Printf.sprintf "mean online %.2f > 0.85" mean) true (mean > 0.85)


(* ---------- link history vs an interval-list model ---------- *)

(* The reference model: a bare list of recorded (start, finish) intervals
   per link. *)
let model_is_bad intervals time =
  List.exists (fun (s, f) -> s <= time && time < f) intervals

let model_merged intervals =
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) intervals in
  let rec merge = function
    | (s1, f1) :: (s2, f2) :: rest when s2 <= f1 -> merge ((s1, Float.max f1 f2) :: rest)
    | pair :: rest -> pair :: merge rest
    | [] -> []
  in
  merge sorted

(* Recordings on three links. Half the endpoints sit on a 300 s grid, so
   recordings often overlap or touch, and multiples of 3600 s fall inside
   or at the ends of some; lengths include zero. *)
let arbitrary_intervals =
  let open QCheck.Gen in
  let on_grid bound = map (fun k -> float_of_int (300 * k)) bound in
  let start = oneof [ on_grid (int_bound 48); float_bound_inclusive 14_400. ] in
  let length = oneof [ return 0.; on_grid (int_range 1 16); float_bound_inclusive 5_000. ] in
  QCheck.make
    ~print:QCheck.Print.(list (triple int float float))
    (list_size (int_bound 30) (triple (int_bound 2) start length))

let prop_link_history_matches_list_model =
  QCheck.Test.make ~name:"interval store = interval-list model (queries and merges)" ~count:500
    QCheck.(pair arbitrary_intervals (small_list (float_bound_inclusive 15_000.)))
    (fun (recorded, probes) ->
      let history = Link_history.create ~link_count:3 in
      let model = Array.make 3 [] in
      List.iter
        (fun (link, start, length) ->
          Link_history.add_interval history ~link ~start ~finish:(start +. length);
          if length > 0. then model.(link) <- (start, start +. length) :: model.(link))
        recorded;
      let endpoints =
        List.concat_map (fun (_, start, length) -> [ start; start +. length ]) recorded
      in
      List.for_all
        (fun time ->
          List.for_all
            (fun link ->
              Link_history.is_bad_at history ~link ~time = model_is_bad model.(link) time)
            [ 0; 1; 2 ])
        (endpoints @ probes)
      && List.for_all
           (fun link -> Link_history.intervals history ~link = model_merged model.(link))
           [ 0; 1; 2 ])

(* Replaying a failure history onto an engine: once every event of an
   instant before the horizon has fired, each link's state is the
   history's verdict at the engine clock. *)
let prop_replay_tracks_history =
  QCheck.Test.make ~name:"replayed link state = history at every event time" ~count:20
    QCheck.(int_range 1 1000)
    (fun seed ->
      let g, routes = failure_fixture (Int64.of_int seed) in
      let link_count = Graph.link_count g in
      let duration = 7_200. in
      let failures =
        Failures.generate ~rng:(Prng.of_seed (Int64.of_int (seed + 7))) ~config:Failures.paper_config
          ~link_count ~routes ~duration
      in
      let history = failures.Failures.history in
      let engine = Engine.create () in
      let state = Link_state.create ~link_count ~good_loss:0. ~bad_loss:1. in
      Link_history.replay history ~engine ~state ~horizon:duration;
      let times =
        List.init link_count (fun link -> Link_history.intervals history ~link)
        |> List.concat_map (List.concat_map (fun (s, f) -> [ s; f ]))
        |> List.filter (fun time -> time < duration)
        |> List.sort_uniq Float.compare
      in
      List.for_all
        (fun time ->
          Engine.run_until engine time;
          List.for_all
            (fun link ->
              Link_state.is_bad state link = Link_history.is_bad_at history ~link ~time)
            (List.init link_count Fun.id))
        times)

(* ---------- churn event stream ---------- *)

let test_churn_events_stream_matches_transitions () =
  let rng = Prng.of_seed 54L in
  let churn = Churn.generate ~rng ~hosts:25 ~duration:30_000. in
  let events = Churn.events churn in
  (* Chronological, ties by host. *)
  Array.iteri
    (fun i (time, host) ->
      if i > 0 then begin
        let pt, ph = events.(i - 1) in
        check Alcotest.bool "ordered" true (pt < time || (pt = time && ph <= host))
      end)
    events;
  check Alcotest.int "one event per toggle" (Churn.toggle_count churn) (Array.length events);
  (* The stream replayed per host equals the per-host transition list, and
     parity starts from the initial flag. *)
  for host = 0 to 24 do
    let mine = Array.to_list events |> List.filter (fun (_, h) -> h = host) in
    let expected = Churn.transitions churn ~host in
    check Alcotest.int "count" (List.length expected) (List.length mine);
    List.iter2
      (fun (t_stream, _) (t_trans, became) ->
        check (Alcotest.float 1e-9) "time" t_trans t_stream;
        (* Toggles alternate, so direction is derivable from the initial
           state; just sanity-check the first one. *)
        ignore became)
      mine expected;
    (match expected with
    | (_, first_direction) :: _ ->
        check Alcotest.bool "first toggle leaves the initial state"
          (not (Churn.initially_online churn ~host))
          first_direction
    | [] -> ())
  done

let test_engine_capacity_shrinks () =
  let engine = Engine.create () in
  for i = 1 to 2048 do
    Engine.schedule_at engine ~time:(float_of_int i) (fun _ -> ())
  done;
  let full = Engine.capacity engine in
  Engine.run engine;
  check Alcotest.bool "released event storage" true (Engine.capacity engine < full / 4)

let prop_engine_fires_in_time_order =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"events fire in non-decreasing time order" ~count:100
       QCheck.(small_list (float_bound_inclusive 1000.))
       (fun times ->
         let engine = Engine.create () in
         let fired = ref [] in
         List.iter
           (fun time -> Engine.schedule_at engine ~time (fun e -> fired := Engine.now e :: !fired))
           times;
         Engine.run engine;
         let fired = List.rev !fired in
         List.length fired = List.length times
         && List.sort Float.compare fired = fired))

let suites =
  [
    ( "netsim.engine",
      [
        Alcotest.test_case "time order" `Quick test_engine_time_order;
        Alcotest.test_case "FIFO on ties" `Quick test_engine_fifo_same_time;
        Alcotest.test_case "run_until" `Quick test_engine_run_until;
        Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
        Alcotest.test_case "rejects past" `Quick test_engine_rejects_past;
        Alcotest.test_case "rejects NaN and negative" `Quick
          test_engine_rejects_nan_and_negative;
        prop_engine_fires_in_time_order;
      ] );
    ("netsim.link_state", [ Alcotest.test_case "transitions" `Quick test_link_state_transitions ]);
    ( "netsim.link_history",
      [
        Alcotest.test_case "interval queries" `Quick test_history_queries;
        Alcotest.test_case "replay onto engine" `Quick test_history_replay;
        QCheck_alcotest.to_alcotest prop_link_history_matches_list_model;
        QCheck_alcotest.to_alcotest prop_replay_tracks_history;
      ] );
    ( "netsim.failures",
      [
        Alcotest.test_case "steady-state fraction" `Quick test_failures_steady_state;
        Alcotest.test_case "only relevant links fail" `Quick
          test_failures_only_touch_relevant_links;
        Alcotest.test_case "edge bias" `Quick test_failures_edge_bias;
        Alcotest.test_case "target fraction across seeds" `Quick
          test_failures_target_across_seeds;
      ] );
    ( "netsim.churn",
      [
        Alcotest.test_case "steady state" `Quick test_churn_steady_state;
        Alcotest.test_case "transition consistency" `Quick test_churn_transitions_consistent;
        Alcotest.test_case "transitions chronological and alternating" `Quick
          test_churn_transitions_chronological_and_alternating;
        Alcotest.test_case "default config mostly online" `Quick
          test_churn_mostly_online_default;
        Alcotest.test_case "events stream matches transitions" `Quick
          test_churn_events_stream_matches_transitions;
      ] );
    ( "netsim.capacity",
      [ Alcotest.test_case "engine storage shrinks" `Quick test_engine_capacity_shrinks ] );
  ]
