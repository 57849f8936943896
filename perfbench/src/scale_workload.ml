(* The scale-churn workload: a 100k-node Pastry world on the flat overlay
   core. Episodes alternate a slice of churn events (Scale_world.step_event:
   incremental Inc_table join/leave, the writes) with a batch of routes
   (Scale_world.run_episode over a 2-domain pool, the reads). *)

module Scale_world = Concilium_scale.Scale_world
module Inc_table = Concilium_overlay.Inc_table
module Pool = Concilium_util.Pool
module Collector = Concilium_obs.Collector
module Trace = Concilium_obs.Trace
module Metrics = Concilium_obs.Metrics
module Prov = Concilium_provenance.Graph

let nodes = 100_000
let domains = 2
let events_per_episode = 100
let routes_per_episode = 400

(* Four hours of churn: several times what one measured run consumes. *)
let churn_duration = 14_400.

let build ~pool ~seed =
  Scale_world.build ~pool
    (Scale_world.config ~protocol:Scale_world.Pastry ~nodes ~seed ~churn_duration ())

type run = {
  episodes : int;
  routes : int;
  delivered : int;
  hops : int;
  events : int;
  wall_s : float;
  virtual_s : float;
  episode_ms : float array;
  churn_s : float;  (* wall inside step_event *)
  churn_words : float;  (* minor words inside step_event, traced runs only *)
  route_s : float;  (* wall inside run_episode *)
  maintained : int;  (* churn events that went through Inc_table's delta path *)
  writes : int;  (* Inc_table writes during the run *)
  owners : int;  (* Inc_table owners touched during the run *)
  transcript : Outcome.Digest.t;
}

let table_totals world =
  match Scale_world.table world with
  | Some table -> (Inc_table.events table, Inc_table.total_writes table, Inc_table.total_owners table)
  | None -> (0, 0, 0)

(* Run episodes while [continue episodes_done] holds and churn remains.
   With [traced], every step_event call is timed on its own and the
   episodes record into a trace sink; otherwise each phase is timed as a
   whole. The transcript folds every episode line and the final state. *)
let run world ~pool ~traced ~continue =
  let obs =
    if traced then { Collector.trace = Trace.create (); metrics = Metrics.noop; prov = Prov.noop }
    else Collector.noop
  in
  let events0, writes0, owners0 = table_totals world in
  let clock0 = Scale_world.clock world in
  let transcript = Outcome.Digest.create ~every:16 () in
  let episode_ms = ref [] in
  let episodes = ref 0 and routes = ref 0 and delivered = ref 0 and hops = ref 0 and events = ref 0 in
  let churn_s = ref 0. and churn_words = ref 0. and route_s = ref 0. in
  let exhausted = ref false in
  let t0 = Host.now () in
  while (not !exhausted) && continue !episodes do
    let episode = !episodes + 1 in
    let start = Host.now () in
    let stepped = ref 0 in
    if traced then
      while !stepped < events_per_episode && not !exhausted do
        let words = Gc.minor_words () in
        let applied, seconds = Host.timed (fun () -> Scale_world.step_event world) in
        churn_words := !churn_words +. (Gc.minor_words () -. words);
        churn_s := !churn_s +. seconds;
        if applied then incr stepped else exhausted := true
      done
    else begin
      while !stepped < events_per_episode && not !exhausted do
        if Scale_world.step_event world then incr stepped else exhausted := true
      done;
      churn_s := !churn_s +. (Host.now () -. start)
    end;
    let result, seconds =
      Host.timed (fun () -> Scale_world.run_episode ~pool ~obs world ~episode ~routes:routes_per_episode)
    in
    route_s := !route_s +. seconds;
    episode_ms := ((Host.now () -. start) *. 1e3) :: !episode_ms;
    Outcome.Digest.add transcript (Scale_world.episode_line ~episode result);
    episodes := episode;
    events := !events + !stepped;
    routes := !routes + result.Scale_world.routes;
    delivered := !delivered + result.Scale_world.delivered;
    hops := !hops + result.Scale_world.total_hops
  done;
  let wall_s = Host.now () -. t0 in
  Outcome.Digest.add ~checkpoint:false transcript (Scale_world.state_line world);
  Outcome.Digest.add ~checkpoint:false transcript (Scale_world.maintenance_line world);
  let events1, writes1, owners1 = table_totals world in
  {
    episodes = !episodes;
    routes = !routes;
    delivered = !delivered;
    hops = !hops;
    events = !events;
    wall_s;
    virtual_s = Scale_world.clock world -. clock0;
    episode_ms = Array.of_list (List.rev !episode_ms);
    churn_s = !churn_s;
    churn_words = !churn_words;
    route_s = !route_s;
    maintained = events1 - events0;
    writes = writes1 - writes0;
    owners = owners1 - owners0;
    transcript;
  }

let run_for world ~pool ~seconds =
  let deadline = Host.now () +. seconds in
  run world ~pool ~traced:false ~continue:(fun _ -> Host.now () < deadline)

let run_episodes world ~pool ~episodes ~traced =
  run world ~pool ~traced ~continue:(fun done_ -> done_ < episodes)
