(* Million-node worlds for the scaling bench and the scale-smoke CI job.

   A scale world is the flat-array core end to end: a fixed sorted id
   universe ([Ring]), an alive bitset driven by a churn timeline, and —
   for Pastry — incrementally maintained constrained routing tables
   ([Inc_table]); Chord derives its state on demand from the ring.
   Everything here is deterministic in (config, seed): all timing lives in
   bin/scale.ml, and transcripts contain only replayable content
   (checksums, digests, counts), so d1-vs-d2 runs diff byte-identical. *)

module Prng = Concilium_util.Prng
module Pool = Concilium_util.Pool
module Hashing = Concilium_util.Hashing
module Collector = Concilium_obs.Collector
module Trace = Concilium_obs.Trace
module Metrics = Concilium_obs.Metrics
module Churn = Concilium_netsim.Churn
module Id = Concilium_overlay.Id
module Ring = Concilium_overlay.Ring
module Inc_table = Concilium_overlay.Inc_table
module Chord = Concilium_overlay.Chord

type protocol = Pastry | Chord

let protocol_name = function Pastry -> "pastry" | Chord -> "chord"

type config = { protocol : protocol; nodes : int; seed : int64; churn_duration : float }

let config ?(churn_duration = 3600.) ~protocol ~nodes ~seed () =
  if nodes < 2 then invalid_arg "Scale_world.config: need at least two nodes";
  { protocol; nodes; seed; churn_duration }

(* Pastry leaf sets hold 8 nodes on each side of their owner. *)
let leaf_half = 8

type t = {
  config : config;
  ring : Ring.t;
  table : Inc_table.t option;
  events : (float * int) array;
  mutable cursor : int;
  mutable clock : float;
  mutable applied : int;
  mutable skipped : int;
  mutable episode_rngs : Prng.t array;  (* reseeded in place every episode *)
}

(* Draw [n] distinct ids. Collisions among 128-bit draws are vanishingly
   rare; redraw-and-resort handles them without biasing the common case. *)
let distinct_sorted_ids ~rng n =
  let ids = Array.init n (fun _ -> Id.random rng) in
  let rec fix () =
    Array.sort Id.compare ids;
    let dup = ref false in
    for i = 1 to n - 1 do
      if Id.compare ids.(i - 1) ids.(i) = 0 then begin
        ids.(i) <- Id.random rng;
        dup := true
      end
    done;
    if !dup then fix ()
  in
  fix ();
  ids

let build ?pool config =
  let rng = Prng.of_seed config.seed in
  let id_rng = Prng.split rng in
  let churn_rng = Prng.split rng in
  let ids = distinct_sorted_ids ~rng:id_rng config.nodes in
  let ring = Ring.of_sorted_ids ids in
  let churn = Churn.generate ~rng:churn_rng ~hosts:config.nodes ~duration:config.churn_duration in
  (* Align the ring with the timeline's initial state before building any
     tables, so the build sweeps over the real initial membership. *)
  for host = 0 to config.nodes - 1 do
    if not (Churn.initially_online churn ~host) then Ring.set_dead ring host
  done;
  (* Degenerate configs (initial_online_fraction ~ 0) still need a ring to
     route on; resurrect the lowest positions deterministically. *)
  let host = ref 0 in
  while Ring.alive_count ring < 2 do
    Ring.set_alive ring !host;
    incr host
  done;
  (* The sweep-build parallelizes safely: slot values are pure functions of
     the ring, so the table is byte-identical for any domain count. *)
  let table =
    match config.protocol with
    | Pastry -> Some (Inc_table.build ?pool ring)
    | Chord -> None
  in
  {
    config;
    ring;
    table;
    events = Churn.events churn;
    cursor = 0;
    clock = 0.;
    applied = 0;
    skipped = 0;
    episode_rngs = [||];
  }

let ring t = t.ring
let table t = t.table
let clock t = t.clock
let events_total t = Array.length t.events
let events_applied t = t.applied
let events_skipped t = t.skipped
let events_pending t = Array.length t.events - t.cursor

(* Apply one churn event: a toggle of its host's liveness, through the
   incremental-table delta path when one is maintained. The last alive
   node never leaves (routing needs a non-empty ring). *)
let apply_event t host =
  if Ring.is_alive t.ring host then begin
    if Ring.alive_count t.ring > 2 then begin
      (match t.table with
      | Some table -> ignore (Inc_table.apply_leave table host)
      | None -> Ring.set_dead t.ring host);
      t.applied <- t.applied + 1
    end
    else t.skipped <- t.skipped + 1
  end
  else begin
    (match t.table with
    | Some table -> ignore (Inc_table.apply_join table host)
    | None -> Ring.set_alive t.ring host);
    t.applied <- t.applied + 1
  end

let step_event t =
  if t.cursor >= Array.length t.events then false
  else begin
    let time, host = t.events.(t.cursor) in
    t.cursor <- t.cursor + 1;
    t.clock <- time;
    apply_event t host;
    true
  end

let advance_to t time =
  let before = t.applied in
  let continue = ref true in
  while !continue && t.cursor < Array.length t.events do
    let event_time, _ = t.events.(t.cursor) in
    if event_time <= time then ignore (step_event t) else continue := false
  done;
  if time > t.clock then t.clock <- time;
  t.applied - before

(* ---------- episode workloads ---------- *)

type episode_result = {
  routes : int;
  delivered : int;
  total_hops : int;
  digest : int64;
}

let episode_rng t ~episode =
  Prng.of_seed
    (Hashing.fnv1a_int
       (Hashing.fnv1a_int (Hashing.fnv1a "scale-episode") t.config.seed)
       (Int64.of_int episode))

(* Deterministic alive source: first alive at-or-after a random position.
   Bounded (one bitset scan) unlike retry-until-alive. *)
let pick_source ring rng =
  Ring.next_alive_cyclic_from ring (Prng.int rng (Ring.size ring))

let route_once t rng =
  let dest = Id.random rng in
  let src = pick_source t.ring rng in
  match t.table with
  | Some table ->
      let root = Inc_table.numerically_closest table dest in
      let final, hops, digest =
        Inc_table.route table ~leaf_half ~src ~dest
      in
      (hops, final = root, digest)
  | None ->
      let owner = Chord.owner_of_key t.ring dest in
      let final, hops, digest = Chord.route t.ring ~src ~dest in
      (hops, final = owner, digest)

(* Task [i] writes only slot [i] and draws only from rngs.(i), pre-split
   before dispatch: bit-identical across domain counts. The per-route
   generators are recycled across episodes ([Prng.split_into] reseeds the
   cached array with exactly [split_n]'s streams), so a long soak allocates
   the fan-out scratch once instead of [routes] records per episode. *)
let run_episode ?pool ?(obs = Collector.noop) t ~episode ~routes =
  let base = episode_rng t ~episode in
  let rngs =
    if Array.length t.episode_rngs = routes then begin
      Prng.split_into base t.episode_rngs;
      t.episode_rngs
    end
    else begin
      let fresh = Prng.split_n base routes in
      t.episode_rngs <- fresh;
      fresh
    end
  in
  let results = Pool.parallel_init ?pool routes ~f:(fun i -> route_once t rngs.(i)) in
  (* Observability happens only in this sequential aggregation pass, after
     the fan-out has joined: workers never touch the sinks, so the trace
     and metrics stay byte-identical for every domain count. *)
  let span =
    Trace.span_open obs.Collector.trace ~time:t.clock ~cat:"episode"
      ~args:[ ("episode", Trace.Int episode); ("routes", Trace.Int routes) ]
      "scale.episode"
  in
  let metrics = obs.Collector.metrics in
  let delivered = ref 0 and total_hops = ref 0 in
  let digest = ref (Hashing.fnv1a "scale-episode-digest") in
  Array.iter
    (fun (hops, ok, route_digest) ->
      if ok then incr delivered;
      total_hops := !total_hops + hops;
      Metrics.observe metrics "scale.route_hops" (float_of_int hops);
      digest := Hashing.fnv1a_int !digest route_digest)
    results;
  Metrics.incr metrics ~by:routes "scale.routes";
  Metrics.incr metrics ~by:!delivered "scale.delivered";
  Trace.span_close obs.Collector.trace ~time:t.clock
    ~args:[ ("delivered", Trace.Int !delivered); ("hops", Trace.Int !total_hops) ]
    span;
  { routes; delivered = !delivered; total_hops = !total_hops; digest = !digest }

(* ---------- checksums and transcript lines ---------- *)

let membership_checksum t =
  let h = ref (Hashing.fnv1a "alive-set") in
  for i = 0 to Ring.size t.ring - 1 do
    if Ring.is_alive t.ring i then h := Hashing.fnv1a_int !h (Int64.of_int i)
  done;
  !h

let state_checksum t =
  match t.table with
  | Some table -> Hashing.fnv1a_int (membership_checksum t) (Inc_table.checksum table)
  | None -> membership_checksum t

let header_line t =
  Printf.sprintf "world protocol=%s nodes=%d alive=%d rows=%d events=%d"
    (protocol_name t.config.protocol)
    t.config.nodes (Ring.alive_count t.ring)
    (match t.table with Some table -> Inc_table.materialized_rows table | None -> 0)
    (Array.length t.events)

let state_line t =
  Printf.sprintf "state clock=%.3f applied=%d skipped=%d alive=%d checksum=%016Lx" t.clock
    t.applied t.skipped (Ring.alive_count t.ring) (state_checksum t)

let episode_line ~episode result =
  Printf.sprintf "episode %d routes=%d delivered=%d hops=%d digest=%016Lx" episode
    result.routes result.delivered result.total_hops result.digest

let maintenance_line t =
  match t.table with
  | None -> "maintenance none"
  | Some table ->
      Printf.sprintf "maintenance events=%d writes=%d changed=%d owners=%d"
        (Inc_table.events table) (Inc_table.total_writes table)
        (Inc_table.total_changed table) (Inc_table.total_owners table)
