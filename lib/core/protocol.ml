module Id = Concilium_overlay.Id
module Pastry = Concilium_overlay.Pastry
module Engine = Concilium_netsim.Engine
module Link_state = Concilium_netsim.Link_state
module Routes = Concilium_topology.Routes
module Observation = Concilium_tomography.Observation
module Probing = Concilium_tomography.Probing
module Logical_tree = Concilium_tomography.Logical_tree
module Tree = Concilium_tomography.Tree
module Minc = Concilium_tomography.Minc
module Sha256 = Concilium_crypto.Sha256
module Prng = Concilium_util.Prng
module Obs = Concilium_obs.Collector
module Trace = Concilium_obs.Trace
module Metrics = Concilium_obs.Metrics
module Prov = Concilium_provenance.Graph

let log_source = Logs.Src.create "concilium.protocol" ~doc:"Concilium protocol runtime"

module Log = (val Logs.src_log log_source : Logs.LOG)

type behavior =
  | Honest
  | Message_dropper of float
  | Silent_dropper
  | Sparse_advertiser of float

type config = {
  blame : Blame.config;
  exclude_suspect_probes : bool;
  one_vote_per_prober : bool;
  validation_gamma_jump : float;
}

let default_config =
  {
    blame = Blame.paper_config;
    exclude_suspect_probes = true;
    one_vote_per_prober = true;
    validation_gamma_jump = 1.3;
  }

(* The paper's parameters (Section 4): verdict windows of w entries (the
   m guilty verdicts before a formal accusation are [Accusation.m]),
   lightweight probe inter-arrivals uniform in [0, max_probe_time], DHT
   replicas per accusation key, and heavyweight bursts of striped rounds
   recording a link down above the loss threshold. *)
let window_size = 100
let max_probe_time = 120.
let dht_replication = 4
let heavyweight_rounds = 50
let heavyweight_loss_threshold = 0.3

(* Runtime hardening: a tree that answers nothing is re-probed at most 4x
   less often; a burst starved below 10 usable rounds records nothing and
   its judge abstains; an unacknowledged message is retransmitted twice,
   1 s after the first attempt and 2 s after the second. *)
let probe_backoff_cap = 4.
let min_heavyweight_rounds = 10
let retry_limit = 2
let retry_base_delay = 1.
let retry_backoff = 2.

(* ---------- Adversary tap points ----------

   Taps are the seams where a strategy layer (Concilium_adversary) lets
   compromised nodes intercept or forge protocol messages. Every tap is a
   pure function of its arguments plus whatever state the strategy carries;
   determinism rules: a tap may draw randomness only from its own pre-split
   PRNG, never from the runtime's. A firing tap may change how much of the
   runtime PRNG stream the overridden honest code would have consumed
   (e.g. a forced drop skips a Message_dropper's Bernoulli draw) — a
   scenario is reproducible per (seed, taps), not across tap configs. *)

type forward_decision = Tap_forward | Tap_drop

type taps = {
  tap_route : time:float -> from:int -> dest:Id.t -> int list -> int list option;
      (* eclipse joins: rewrite the overlay route before the first attempt;
         [None] leaves it untouched *)
  tap_forward : time:float -> node:int -> sender:int -> next:int -> forward_decision option;
      (* colluding forwarders: override [node]'s forwarding decision;
         [None] defers to its configured behavior *)
  tap_observation : time:float -> prober:int -> link:int -> up:bool -> bool;
      (* lying reporters: transform the up/down bit a compromised prober
         records (and later advertises/archives) for a link *)
  tap_advertised_peers : time:float -> node:int -> int array -> int array option;
      (* biased peer sampling: rewrite the peer set a node advertises in
         its routing-state snapshot *)
  tap_forged_reports : time:float -> prober:int -> (int * bool) list;
      (* ballot stuffing: extra (link, up) observations a compromised
         prober injects after each lightweight round, mutually
         corroborating its coalition's story *)
}

let no_taps =
  {
    tap_route = (fun ~time:_ ~from:_ ~dest:_ _ -> None);
    tap_forward = (fun ~time:_ ~node:_ ~sender:_ ~next:_ -> None);
    tap_observation = (fun ~time:_ ~prober:_ ~link:_ ~up -> up);
    tap_advertised_peers = (fun ~time:_ ~node:_ _ -> None);
    tap_forged_reports = (fun ~time:_ ~prober:_ -> []);
  }

type diagnosis =
  | Diagnosed of Stewardship.resolution
  | Insufficient_evidence of { judge : int; usable_rounds : int; required_rounds : int }

type outcome = {
  message_id : string;
  delivered : bool;
  attempts : int;
  route : int list;
  drop : drop option;
  diagnosis : diagnosis option;
  no_commitment_from : int option;
}

and drop =
  | Dropped_by_overlay of int
  | Dropped_on_ip_link of int
  | Ack_lost_on_link of int
  | Hop_offline of int  (** the next hop was churned out when the message arrived *)

(* What a send computes once. [paths.(i)] is the IP path from [hops.(i)]
   to [hops.(i + 1)], [None] where a rewritten route made the two hops
   IP-unreachable. The id is stable across retransmits, so every
   attempt's commitments name the same message. *)
type message = {
  id : string;
  sender : int;
  dest : Id.t;
  route : int list;
  hops : int array;
  paths : Routes.path option array;
  span : Trace.span;
  on_outcome : outcome -> unit;
  mutable attempts : int;  (** attempts made so far *)
  mutable backoff : Trace.span;  (** the retransmit backoff under way *)
  mutable events : Prov.node list;
      (** adversary tap firings and failovers on the message's path,
          newest first: evidence children of every verdict its diagnosis
          produces *)
}

(* How far one attempt got. Positions [0, forwarders) received the message
   and passed it on: the last position to receive it counts when it
   forwarded too. [commitments.(j)] is the forwarding commitment hop j
   issued to hop j - 1. [drop] is [None] once the ack is back. *)
type walk = { forwarders : int; commitments : Commitment.t option array; drop : drop option }

(* A final attempt from its drop until its judgment has read the store. *)
type episode = {
  message : message;
  walk : walk;
  drop_time : float;
  span : Trace.span;
  mutable judged : bool;
}

(* What a verdict window archives for a guilty verdict: its signed evidence
   and its provenance node, which every accusation carrying that evidence
   cites. *)
type archived_verdict = { evidence : Accusation.archived; verdict_node : Prov.node }

type t = {
  world : World.t;
  engine : Engine.t;
  link_state : Link_state.t;
  rng : Prng.t;
  config : config;
  behavior : int -> behavior;
  taps : taps;
  availability : time:float -> int -> bool;
  control_latency : time:float -> float;
  put_copies : time:float -> int;
  observations : Observation.t;
  (* Episodes scheduled for judgment but not yet judged, oldest drop
     first; with [now] they bound the oldest blame window anyone can still
     read. *)
  pending_judgments : episode Queue.t;
  mutable next_prune : float;
  windows : (int * int, archived_verdict Verdict_window.t) Hashtbl.t;
  dht : Dht.t;
  control_bytes : int array;
  (* Each node's previously advertised per-peer path status, for snapshot
     diffs; empty until its first round. *)
  last_advertised : bool array array;
  obs : Obs.t;
  (* Provenance index: recorded observations keyed back to their arena
     nodes, so a verdict's evidence edges can point at the votes it
     counted. Only populated when the collector's provenance graph is
     recording. Times are keyed by their IEEE bits — the exact double, no
     epsilon. *)
  prov_probes : (int * int * int64 * bool, Prov.node) Hashtbl.t;
  mutable message_seq : int;
  (* Each node's probe inter-arrival multiplier. *)
  probe_backoff : float array;
  (* One round's buffers, sized for the largest tree and reused by every
     round and burst: link fates and the round's verdict bytes by tree
     node, acks and offline peers by leaf, classes by logical node. *)
  fates : Bytes.t;
  verdicts : Bytes.t;
  received : bool array;
  acked : bool array;
  offline : bool array;
  classes : Probing.link_verdict array;
  loss_of_link : int -> float;
  leaf_behavior : int -> Probing.leaf_behavior;
}

let create ~world ~engine ~link_state ~rng ?(availability = fun ~time:_ _ -> true)
    ?(control_latency = fun ~time:_ -> 0.) ?(put_copies = fun ~time:_ -> 1) ?(obs = Obs.noop)
    ?(taps = no_taps) config ~behavior =
  (* Queue-depth sampling rides the engine's passive push hook: installed
     only for a recording collector, so the uninstrumented engine keeps its
     single-branch cost. *)
  if Obs.enabled obs then
    Engine.set_on_push engine (fun ~pending ->
        Metrics.observe obs.Obs.metrics "engine.queue_depth" (float_of_int pending));
  (* Replay parameters ride with the provenance graph so explain.exe can
     re-run Blame over archived votes without the run's config files. *)
  if Prov.enabled obs.Obs.prov then begin
    Prov.set_param obs.Obs.prov "accuracy" config.blame.Blame.accuracy;
    Prov.set_param obs.Obs.prov "delta" config.blame.Blame.delta;
    Prov.set_param obs.Obs.prov "guilt_threshold" config.blame.Blame.guilt_threshold
  end;
  let largest size = Array.fold_left (fun acc x -> max acc (size x)) 0 in
  let nodes = largest Tree.node_count world.World.trees in
  let leaves = largest Tree.leaf_count world.World.trees in
  let offline = Array.make leaves false in
  {
    world;
    engine;
    link_state;
    rng;
    config;
    behavior;
    taps;
    availability;
    control_latency;
    put_copies;
    observations = Observation.create world.World.trees;
    pending_judgments = Queue.create ();
    next_prune = Float.neg_infinity;
    windows = Hashtbl.create 256;
    dht = Dht.create ~pastry:world.World.pastry ~replication:dht_replication;
    control_bytes = Array.make (World.node_count world) 0;
    last_advertised = Array.make (World.node_count world) [||];
    obs;
    prov_probes = Hashtbl.create (if Prov.enabled obs.Obs.prov then 1024 else 1);
    message_seq = 0;
    probe_backoff = Array.make (World.node_count world) 1.;
    fates = Bytes.create nodes;
    verdicts = Bytes.create nodes;
    received = Array.make leaves false;
    acked = Array.make leaves false;
    offline;
    classes =
      Array.make (largest Logical_tree.node_count world.World.logical) Probing.Indeterminate;
    loss_of_link = (fun link -> Link_state.loss_rate link_state link);
    leaf_behavior =
      (fun leaf -> if offline.(leaf) then Probing.Suppress_acks 1.0 else Probing.Honest);
  }

let observations t = t.observations
let dht t = t.dht
let world t = t.world

(* ---------- Provenance recording ---------- *)

(* Every archived observation gets an arena node so verdict evidence edges
   can point at the exact votes that were counted. Identical re-reports
   (same prober/link/time/polarity) collapse onto the latest node — their
   vote multisets are indistinguishable, so replay is unaffected. *)
let prov_record_probe t ~prober ~link ~time ~up ~tapped ~forged =
  let prov = t.obs.Obs.prov in
  if Prov.enabled prov then begin
    let node = Prov.probe prov ~prober ~link ~time ~up ~tapped ~forged in
    Hashtbl.replace t.prov_probes (prober, link, Int64.bits_of_float time, up) node
  end

let prov_probe_of t obs =
  Hashtbl.find_opt t.prov_probes
    ( obs.Observation.prober,
      obs.Observation.link,
      Int64.bits_of_float obs.Observation.time,
      obs.Observation.up )

(* ---------- Observation horizon ----------

   A judgment reads [drop - Delta, drop + Delta]. A pending judgment's drop
   sits in [pending_judgments]; any later drop happens at or after [now].
   So no blame window can start before min(now, oldest pending drop) -
   Delta, whatever control delay holds a judgment back, and the store and
   the provenance probe index both forget what lies behind that horizon.
   It moves at most once per Delta of virtual time, from events that
   already run (probe rounds and judgments). *)

let rec oldest_pending_drop t =
  match Queue.peek_opt t.pending_judgments with
  | Some episode when episode.judged ->
      ignore (Queue.pop t.pending_judgments : episode);
      oldest_pending_drop t
  | Some episode -> episode.drop_time
  | None -> Float.infinity

let prune_behind_horizon t =
  let now = Engine.now t.engine in
  if now >= t.next_prune then begin
    let delta = t.config.blame.Blame.delta in
    t.next_prune <- now +. delta;
    let horizon = Float.min now (oldest_pending_drop t) -. delta in
    Observation.prune_before t.observations horizon;
    (* Each entry is kept or dropped on its own time, so the visit order
       cannot change the outcome. *)
    Hashtbl.filter_map_inplace
      (fun (_, _, bits, _) node -> if Int64.float_of_bits bits < horizon then None else Some node)
      t.prov_probes
  end

(* ---------- Probe rounds ---------- *)

(* Marks in [t.offline], per leaf index of [v]'s tree, whether the routing
   peer behind the leaf's router is offline at [time]. Offline peers cannot
   acknowledge (churn looks like total ack suppression from the prober's
   vantage), and the paper's disambiguation rule (Section 3.2) — a few
   follow-up probes to tell "truly offline" from "behind a lossy link" —
   confirms them, so their chains carry no last-mile information. *)
let mark_offline t v ~time =
  let peers = t.world.World.leaf_peers.(v) in
  for i = 0 to Array.length peers - 1 do
    let peer = peers.(i) in
    t.offline.(i) <- peer >= 0 && not (t.availability ~time peer)
  done

(* Draw one round of [tree] into [t.acked]. *)
let draw_round t tree =
  Probing.draw ~rng:t.rng ~loss_of_link:t.loss_of_link ~tree ~behavior:t.leaf_behavior
    ~fates:t.fates ~received:t.received ~acked:t.acked

(* Prober [v]'s verdict [up] on a logical node, at [time], for every
   physical link of the node's chain in order: passed through the
   adversary's observation tap, set in the round's verdict bytes and, when
   provenance records, given its probe node. *)
let vote_chain t v ~logical ~time node up =
  let starts = Logical_tree.chain_starts logical and links = Logical_tree.chain_links logical in
  let nodes = Logical_tree.chain_nodes logical and recording = Prov.enabled t.obs.Obs.prov in
  for i = starts.(node) to starts.(node + 1) - 1 do
    let link = links.(i) in
    let reported = t.taps.tap_observation ~time ~prober:v ~link ~up in
    if reported <> up then Metrics.incr t.obs.Obs.metrics "adversary.lies";
    Bytes.set t.verdicts nodes.(i) (if reported then Observation.up_vote else Observation.down_vote);
    if recording then
      prov_record_probe t ~prober:v ~link ~time ~up:reported ~tapped:(reported <> up)
        ~forged:false
  done

(* [Metrics.incr ~by] wraps its count in an option: only build it for a
   recording registry. *)
let add_metric t name count =
  if Metrics.enabled t.obs.Obs.metrics then Metrics.incr t.obs.Obs.metrics ~by:count name

(* ---------- Lightweight probing ---------- *)

(* One lightweight round of [v]'s tree, recorded as one round of the store.
   It allocates nothing of its own: the round lives in [t]'s buffers and
   the store's ring. *)
let run_probe_round t v =
  prune_behind_horizon t;
  let tree = t.world.World.trees.(v) in
  let logical = t.world.World.logical.(v) in
  let now = Engine.now t.engine in
  let leaf_count = Tree.leaf_count tree in
  mark_offline t v ~time:now;
  draw_round t tree;
  Probing.classify_into logical t.acked t.classes;
  let leaves = Logical_tree.leaves logical in
  for leaf = 0 to leaf_count - 1 do
    if t.offline.(leaf) then t.classes.(leaves.(leaf)) <- Probing.Indeterminate
  done;
  Bytes.fill t.verdicts 0 (Tree.node_count tree) Observation.no_vote;
  for node = 1 to Logical_tree.node_count logical - 1 do
    match t.classes.(node) with
    | Probing.Probed_up -> vote_chain t v ~logical ~time:now node true
    | Probing.Probed_down -> vote_chain t v ~logical ~time:now node false
    | Probing.Indeterminate -> ()
  done;
  (* Forged corroboration rides the same round: a compromised prober may
     stuff extra reports into the window. Free for the attacker — forged
     votes are fabricated locally, not probed, so no bandwidth is charged. *)
  let forged = t.taps.tap_forged_reports ~time:now ~prober:v in
  (match forged with
  | [] -> ()
  | _ :: _ ->
      add_metric t "adversary.forged_reports" (List.length forged);
      List.iter
        (fun (link, up) ->
          prov_record_probe t ~prober:v ~link ~time:now ~up ~tapped:false ~forged:true)
        forged);
  Observation.record t.observations ~prober:v ~time:now ~verdicts:t.verdicts ~forged;
  (* Bandwidth accounting (Section 4.4): the probe stripe itself, plus the
     snapshot advertisement to every routing peer — the full table on first
     exchange, a diff of changed path summaries after. *)
  let previous = t.last_advertised.(v) in
  let advert_entries =
    if Array.length previous <> leaf_count then begin
      t.last_advertised.(v) <- Array.sub t.acked 0 leaf_count;
      leaf_count
    end
    else begin
      let changed = ref 0 in
      for i = 0 to leaf_count - 1 do
        if t.acked.(i) <> previous.(i) then begin
          incr changed;
          previous.(i) <- t.acked.(i)
        end
      done;
      !changed
    end
  in
  let peer_count = Array.length t.world.World.peers.(v) in
  let stripe_bytes = Bandwidth.probe_stripe_bytes ~leaves:leaf_count in
  let advert_bytes = peer_count * Bandwidth.advert_bytes ~entries:advert_entries in
  t.control_bytes.(v) <- t.control_bytes.(v) + stripe_bytes + advert_bytes;
  add_metric t "bytes.probe_stripe" stripe_bytes;
  add_metric t "bytes.advert_diff" advert_bytes;
  Metrics.incr t.obs.Obs.metrics "probe.light_rounds";
  let any_ack = ref false in
  for i = 0 to leaf_count - 1 do
    if t.acked.(i) then any_ack := true
  done;
  let trace = t.obs.Obs.trace in
  (* The span's arguments are built only for a recording sink. *)
  if Trace.enabled trace then begin
    let round_span =
      Trace.span_open trace ~time:now ~cat:"probe" ~args:[ ("prober", Trace.Int v) ] "probe.round"
    in
    Trace.span_close trace ~time:now ~args:[ ("any_ack", Trace.Bool !any_ack) ] round_span
  end;
  (* A totally silent round (every ack timed out) drives the caller's
     probe backoff; any ack resets it. *)
  !any_ack

(* Heavyweight tomography (Section 3.2): fired when application messages go
   unacknowledged. Many striped rounds, MINC inference, and per-link
   up/down observations at the inferred-loss threshold.

   The burst notionally spans [now, now + rounds * spacing): a judge that
   crashes or churns out mid-burst loses the remaining rounds. Each usable
   round is folded into MINC's subtree-ack counts as it is drawn. Returns
   the number of usable rounds; when that falls below
   min_heavyweight_rounds, no observations are recorded at all — a starved
   estimate is worse than an honest abstention. The verdicts are recorded
   as one round stamped at [stamp] (the blame-window edge), so
   chaos-injected control delay cannot push the evidence outside the
   window it was gathered for. *)
let heavyweight_round_spacing = 1.0

let run_heavyweight_burst t v ~stamp ~parent =
  let tree = t.world.World.trees.(v) in
  let logical = t.world.World.logical.(v) in
  let now = Engine.now t.engine in
  let trace = t.obs.Obs.trace in
  let burst_span =
    Trace.span_open trace ~time:now ~cat:"probe" ~parent
      ~args:[ ("judge", Trace.Int v) ]
      "probe.heavy_burst"
  in
  mark_offline t v ~time:now;
  let counts = Minc.counts logical in
  for r = 0 to heavyweight_rounds - 1 do
    let round_time = now +. (float_of_int r *. heavyweight_round_spacing) in
    if t.availability ~time:round_time v then begin
      draw_round t tree;
      Minc.add_round counts t.acked
    end
  done;
  let usable = Minc.rounds counts in
  let leaf_count = Tree.leaf_count tree in
  let burst_bytes = Bandwidth.heavy_burst_bytes ~rounds:usable ~leaves:leaf_count in
  t.control_bytes.(v) <- t.control_bytes.(v) + burst_bytes;
  add_metric t "bytes.heavy_probe" burst_bytes;
  Metrics.incr t.obs.Obs.metrics "probe.heavy_bursts";
  if usable >= min_heavyweight_rounds then begin
    let estimate = Minc.estimate ~trace ~parent:burst_span ~time:now counts in
    (* Offline leaves' chains carry no information: skip them. *)
    let skip = Array.make (Logical_tree.node_count logical) false in
    let leaves = Logical_tree.leaves logical in
    for leaf = 0 to leaf_count - 1 do
      if t.offline.(leaf) then skip.(leaves.(leaf)) <- true
    done;
    Bytes.fill t.verdicts 0 (Tree.node_count tree) Observation.no_vote;
    for node = 1 to Logical_tree.node_count logical - 1 do
      (* Only chains the estimator actually saw data for. *)
      if (not skip.(node)) && estimate.Minc.gamma.(Logical_tree.parent logical node) > 0. then
        vote_chain t v ~logical ~time:stamp node
          (Minc.link_loss estimate node < heavyweight_loss_threshold)
    done;
    Observation.record t.observations ~prober:v ~time:stamp ~verdicts:t.verdicts ~forged:[]
  end;
  Trace.span_close trace ~time:now
    ~args:[ ("usable_rounds", Trace.Int usable); ("required", Trace.Int min_heavyweight_rounds) ]
    burst_span;
  usable

(* ---------- Routing-state advertisement and validation (Section 3.1) ---------- *)

type advertisement_report = {
  advertiser : int;
  validator : int;
  failures : Validation.failure list;
}

let build_advertisement t v =
  let now = Engine.now t.engine in
  let pastry_node = Pastry.node t.world.World.pastry v in
  let peers =
    match t.taps.tap_advertised_peers ~time:now ~node:v t.world.World.peers.(v) with
    | None -> t.world.World.peers.(v)
    | Some rewritten ->
        Metrics.incr t.obs.Obs.metrics "adversary.advert_rewrites";
        ignore (Prov.tap_firing t.obs.Obs.prov ~kind:Prov.Advert_rewrite ~node:v ~time:now : Prov.node);
        rewritten
  in
  let keep_fraction =
    match t.behavior v with Sparse_advertiser f -> f | _ -> 1.
  in
  let kept =
    Array.to_list peers
    |> List.filteri (fun i _ ->
           keep_fraction >= 1.
           || float_of_int i < keep_fraction *. float_of_int (Array.length peers))
  in
  (* Each referenced peer supplies a fresh signed stamp, as piggybacked on
     availability-probe responses. *)
  let summaries =
    List.map
      (fun peer ->
        let peer_id = World.id_of t.world peer in
        {
          Concilium_tomography.Snapshot.peer = peer_id;
          loss_level = 0;
          freshness =
            Concilium_overlay.Freshness.issue ~holder:peer_id
              ~secret:t.world.World.secrets.(peer)
              ~public:(World.public_key_of t.world peer)
              ~now;
        })
      kept
  in
  let snapshot =
    Concilium_tomography.Snapshot.make ~origin:pastry_node.Pastry.id
      ~secret:t.world.World.secrets.(v)
      ~public:(World.public_key_of t.world v)
      ~now ~summaries
  in
  let true_occupancy = pastry_node.Pastry.occupancy in
  let advertised_occupancy =
    int_of_float (Float.round (keep_fraction *. float_of_int true_occupancy))
  in
  {
    Validation.snapshot;
    jump_table_occupancy = min true_occupancy advertised_occupancy;
    leaf_set = pastry_node.Pastry.leaf_set;
  }

let exchange_advertisements t =
  let now = Engine.now t.engine in
  let reports = ref [] in
  for advertiser = 0 to World.node_count t.world - 1 do
    if t.availability ~time:now advertiser then begin
      let advertisement = build_advertisement t advertiser in
      let entries =
        List.length
          (Concilium_crypto.Signed.payload advertisement.Validation.snapshot)
            .Concilium_tomography.Snapshot.summaries
      in
      let snapshot_bytes =
        Array.length t.world.World.peers.(advertiser) * Bandwidth.advert_bytes ~entries
      in
      t.control_bytes.(advertiser) <- t.control_bytes.(advertiser) + snapshot_bytes;
      Metrics.incr t.obs.Obs.metrics ~by:snapshot_bytes "bytes.snapshot_exchange";
      Array.iter
        (fun validator ->
          if t.availability ~time:now validator then begin
            let validator_node = Pastry.node t.world.World.pastry validator in
            let local =
              {
                Validation.own_jump_occupancy = validator_node.Pastry.occupancy;
                own_leaf_set = validator_node.Pastry.leaf_set;
              }
            in
            let failures =
              Validation.check t.world.World.pki ~now
                ~gamma_jump:t.config.validation_gamma_jump ~local advertisement
            in
            if failures <> [] then
              reports := { advertiser; validator; failures } :: !reports
          end)
        t.world.World.peers.(advertiser)
    end
  done;
  List.rev !reports

let control_bytes_sent t v = t.control_bytes.(v)

let mean_control_bytes_per_second t ~horizon =
  if horizon <= 0. then 0.
  else begin
    let total = Array.fold_left ( + ) 0 t.control_bytes in
    float_of_int total /. float_of_int (World.node_count t.world) /. horizon
  end

(* One tick of node [v]'s lightweight probe loop. [tick] is the loop's
   closure, allocated once per node, and each tick reschedules it until
   the horizon. Probe-timeout backoff: a tree that answers nothing
   (partition, mass churn) is re-probed at a multiplicatively backed-off
   cadence, capped so the prober still notices recovery. Any ack resets
   it. *)
let probe_tick t v ~horizon tick =
  let now = Engine.now t.engine in
  if now < horizon then begin
    (* Offline hosts issue no probes this round but keep their timer. *)
    if t.availability ~time:now v then
      t.probe_backoff.(v) <-
        (if run_probe_round t v then 1.
         else Float.min (t.probe_backoff.(v) *. 2.) probe_backoff_cap);
    let delay = t.probe_backoff.(v) *. Prng.float t.rng max_probe_time in
    if now +. delay < horizon then Engine.schedule t.engine ~delay tick
  end

let start_probing t ~horizon =
  for v = 0 to World.node_count t.world - 1 do
    let rec tick _ = probe_tick t v ~horizon tick in
    let first = Prng.float t.rng max_probe_time in
    Engine.schedule t.engine ~delay:first tick
  done

(* ---------- Judgment machinery ---------- *)

let window_for t ~judge ~suspect =
  match Hashtbl.find_opt t.windows (judge, suspect) with
  | Some w -> w
  | None ->
      let w = Verdict_window.create ~window_size ~m:Accusation.m in
      Hashtbl.replace t.windows (judge, suspect) w;
      w

(* The votes [judge] counts against [suspect] for a drop, read once from
   the store: its forest's in-window observations of each path link. The
   Section 3.4 self-exculpation defense drops the suspect's own reports;
   [-1] never matches a real prober, so the defense-off soak canary can
   observe the attack. *)
let select_votes t ~judge ~suspect ~links ~drop_time =
  Blame.select t.config.blame t.observations
    ~probers:(Array.append [| judge |] t.world.World.sorted_peers.(judge))
    ~exclude_prober:(if t.config.exclude_suspect_probes then suspect else -1)
    ~one_vote_per_prober:t.config.one_vote_per_prober ~links ~drop_time

let counted_up (obs : Observation.observation) = obs.up
let links_of = function Some path -> path.Routes.links | None -> [||]

(* One hop's judgment of its next hop over that hop's forwarding
   commitment, kept from the judgment step (phase A) until its verdict
   window is charged (phase B). [probes] are the arena nodes of the votes
   the selection counted, in vote order, looked up before the store's
   provenance index can be pruned. *)
type charge = {
  judge : int;
  suspect : int;
  verdict : Blame.verdict;  (** before the revision walk's exonerations *)
  blame : float;
  selection : Blame.selection;
  commitment : Commitment.t;
  links : int array;
  usable_rounds : int;
  probes : Prov.node list;
}

let verdict_label = function Blame.Guilty -> "guilty" | Blame.Innocent -> "innocent"

(* Phase A of a judgment: the verdict over the votes the judge counts,
   without touching any window and without signing anything. Windows are
   only charged (phase B, below) after the revision chain has had its say,
   so a downstream exoneration reaches the judge's books instead of
   silently accruing guilt against an honest forwarder. *)
let evaluate_suspect t ~episode ~judge ~suspect ~links ~drop_time ~commitment ~usable_rounds =
  let trace = t.obs.Obs.trace in
  let now = Engine.now t.engine in
  let blame_span =
    Trace.span_open trace ~time:now ~cat:"blame" ~parent:episode
      ~args:[ ("judge", Trace.Int judge); ("suspect", Trace.Int suspect) ]
      "blame.evaluate"
  in
  let selection = select_votes t ~judge ~suspect ~links ~drop_time in
  let blame = Blame.blame_of_groups t.config.blame ~up:counted_up selection.Blame.counted in
  let verdict = Blame.verdict_of_blame t.config.blame blame in
  Log.debug (fun m ->
      m "node %d judges %d: blame %.3f -> %a" judge suspect blame Blame.pp_verdict verdict);
  let probes =
    if Prov.enabled t.obs.Obs.prov then
      List.concat_map (List.filter_map (prov_probe_of t)) (Array.to_list selection.Blame.counted)
    else []
  in
  Trace.span_close trace ~time:now
    ~args:[ ("blame", Trace.Float blame); ("verdict", Trace.String (verdict_label verdict)) ]
    blame_span;
  { judge; suspect; verdict; blame; selection; commitment; links; usable_rounds; probes }

(* A verdict node with its evidence hung under it: defense interventions
   first, then the counted votes in vote order, then episode-scoped events
   (tap firings, steward failover). The edge order is part of the
   byte-stable output contract. *)
let verdict_node prov charge ~kind ~exonerated ~drop_time ~events =
  if not (Prov.enabled prov) then Prov.none
  else begin
    let { judge; suspect; selection; _ } = charge in
    let vnode =
      Prov.verdict prov ~judge ~suspect ~kind ~exonerated ~usable_rounds:charge.usable_rounds
        ~blame:charge.blame ~drop_time
    in
    let defense kind removed =
      if removed > 0 then
        Prov.edge prov ~parent:vnode ~child:(Prov.defense prov ~kind ~removed ~judge ~suspect)
    in
    defense Prov.Exclude_suspect selection.Blame.excluded;
    defense Prov.Vote_dedup selection.Blame.deduped;
    List.iter (fun probe -> Prov.edge prov ~parent:vnode ~child:probe) charge.probes;
    List.iter (fun event -> Prov.edge prov ~parent:vnode ~child:event) events;
    vnode
  end

(* A guilty verdict's evidence: the votes its selection counted, signed as
   they appear inside the provers' archived snapshots. *)
let signed_evidence t charge ~drop_time =
  let sign (obs : Observation.observation) =
    Accusation.make_vote ~prober:(World.id_of t.world obs.prober)
      ~secret:t.world.World.secrets.(obs.prober)
      ~public:(World.public_key_of t.world obs.prober)
      ~link:obs.link ~time:obs.time ~up:obs.up
  in
  let link_votes =
    List.filter_map
      (function
        | [] -> None
        | (obs : Observation.observation) :: _ as votes ->
            Some { Accusation.link = obs.link; votes = List.map sign votes })
      (Array.to_list charge.selection.Blame.counted)
  in
  { Accusation.path_links = charge.links; link_votes; drop_time; commitment = charge.commitment }

(* Phase B: charge the verdict window, which signs and archives evidence
   for a guilty verdict only, and escalate to a formal accusation when it
   crosses m; publication fails over across the accused key's live DHT
   replicas. *)
let record_judgment t charge ~verdict ~drop_time ~episode ~vnode =
  let { judge; suspect; blame; _ } = charge in
  let metrics = t.obs.Obs.metrics in
  let trace = t.obs.Obs.trace in
  let prov = t.obs.Obs.prov in
  let window = window_for t ~judge ~suspect in
  let archived =
    Verdict_window.record window verdict ~drop_time (fun () ->
        let evidence = Accusation.archive (signed_evidence t charge ~drop_time) in
        { evidence; verdict_node = vnode })
  in
  Metrics.observe metrics "verdict_window.occupancy"
    (float_of_int (Verdict_window.length window));
  (match verdict with
  | Blame.Guilty -> Metrics.incr metrics "verdict.guilty"
  | Blame.Innocent -> Metrics.incr metrics "verdict.innocent");
  Trace.instant trace ~time:(Engine.now t.engine) ~cat:"episode" ~span:episode
    ~args:
      [
        ("judge", Trace.Int judge);
        ("suspect", Trace.Int suspect);
        ("verdict", Trace.String (verdict_label verdict));
      ]
    "episode.verdict";
  match archived with
  | Some primary when Verdict_window.should_accuse window -> begin
      (* The formal statement carries the archived evidence of the m - 1
         guilty verdicts before this one (whose evidence is the primary). *)
      let supporting = Verdict_window.supporting window in
      match
        Accusation.make_archived
          ~accuser:(World.id_of t.world judge)
          ~secret:t.world.World.secrets.(judge)
          ~public:(World.public_key_of t.world judge)
          ~accused:(World.id_of t.world suspect)
          ~config:t.config.blame ~evidence:primary.evidence
          ~supporting:(List.map (fun piece -> piece.evidence) supporting)
          ~now:drop_time
      with
      | accusation ->
          Log.info (fun m ->
              m "node %d files a formal accusation against %d (%d guilty in window)" judge
                suspect
                (Verdict_window.guilty_count window));
          let hops = ref 0 in
          let time = Engine.now t.engine in
          let report =
            Dht.put t.dht ~from:judge
              ~alive:(fun node -> t.availability ~time node)
              ~copies:(t.put_copies ~time)
              ~accused_key:(World.public_key_of t.world suspect)
              accusation ~hops
          in
          Metrics.incr metrics "dht.puts";
          Metrics.incr metrics ~by:report.Dht.replicas_written "dht.put_replicas";
          Trace.instant trace ~time ~cat:"episode" ~span:episode
            ~args:
              [
                ("judge", Trace.Int judge);
                ("suspect", Trace.Int suspect);
                ("replicas", Trace.Int report.Dht.replicas_written);
              ]
            "episode.accusation";
          if report.Dht.put_failed_over then begin
            Metrics.incr metrics "dht.put_failovers";
            (* The chaos transcript extracts these instants to report the
               engine time at which each DHT write failed over. *)
            Trace.instant trace ~time ~cat:"dht"
              ~args:[ ("judge", Trace.Int judge); ("suspect", Trace.Int suspect) ]
              "dht.put.failover"
          end;
          if Prov.enabled prov then begin
            (* The formal accusation cites the primary verdict, each verdict
               whose evidence it carries as supporting, and any DHT failover
               its publication took. *)
            let anode =
              Prov.accusation prov ~accuser:judge ~accused:suspect ~blame ~time:drop_time
            in
            Prov.edge prov ~parent:anode ~child:primary.verdict_node;
            List.iter
              (fun piece -> Prov.edge prov ~parent:anode ~child:piece.verdict_node)
              supporting;
            if report.Dht.put_failed_over then
              Prov.edge prov ~parent:anode
                ~child:(Prov.failover prov ~kind:Prov.Dht_put ~node:judge ~time)
          end
      | exception Invalid_argument _ ->
          (* [make_archived] recomputes the blame without the accused's own
             votes. A judge counts those only when suspect exclusion is
             off, and then they can carry a guilty verdict that the
             evidence without them does not support: no accusation is
             filed. *)
          ()
    end
  | Some _ | None -> ()

let guilty_count t ~judge ~suspect =
  match Hashtbl.find_opt t.windows (judge, suspect) with
  | Some w -> Verdict_window.guilty_count w
  | None -> 0

let fetch_accusations t ~from ~accused =
  let hops = ref 0 in
  let time = Engine.now t.engine in
  let report =
    Dht.get t.dht ~from
      ~alive:(fun node -> t.availability ~time node)
      ~accused_key:(World.public_key_of t.world accused)
      ~hops ()
  in
  Metrics.incr t.obs.Obs.metrics "dht.gets";
  if report.Dht.get_failed_over then begin
    Metrics.incr t.obs.Obs.metrics "dht.get_failovers";
    Trace.instant t.obs.Obs.trace ~time ~cat:"dht"
      ~args:[ ("reader", Trace.Int from); ("accused", Trace.Int accused) ]
      "dht.get.failover";
    ignore (Prov.failover t.obs.Obs.prov ~kind:Prov.Dht_get ~node:from ~time : Prov.node)
  end;
  report.Dht.accusations

(* ---------- Message lifecycle ----------

   A send builds one [message]. Each attempt is a forwarding [walk] over
   it, and once retries run out an [episode] holds the final walk until
   its judgment runs. Every event the engine runs for a message is one
   handler below, called on [t] and the message or the episode. *)

let fresh_message_id t ~from ~dest =
  t.message_seq <- t.message_seq + 1;
  Sha256.hex_digest
    (Printf.sprintf "msg|%d|%s|%d|%.6f" from (Id.to_hex dest) t.message_seq
       (Engine.now t.engine))

let transmit_over_path t path =
  (* Per-link Bernoulli loss using the instantaneous link state. *)
  let links = path.Routes.links in
  let rec walk i =
    if i >= Array.length links then Ok ()
    else if Prng.bernoulli t.rng (Link_state.loss_rate t.link_state links.(i)) then
      Error links.(i)
    else walk (i + 1)
  in
  walk 0

let drop_label = function
  | None -> "none"
  | Some (Dropped_by_overlay node) -> Printf.sprintf "overlay:%d" node
  | Some (Dropped_on_ip_link link) -> Printf.sprintf "ip_link:%d" link
  | Some (Ack_lost_on_link link) -> Printf.sprintf "ack_link:%d" link
  | Some (Hop_offline node) -> Printf.sprintf "offline:%d" node

(* Whether forwarder [node] passes the message on to [next]: a firing
   forward tap decides, else [node]'s behavior. *)
let forwards t (msg : message) ~now ~node ~next =
  match t.taps.tap_forward ~time:now ~node ~sender:msg.sender ~next with
  | Some Tap_drop ->
      Metrics.incr t.obs.Obs.metrics "adversary.forced_drops";
      let prov = t.obs.Obs.prov in
      if Prov.enabled prov then
        msg.events <- Prov.tap_firing prov ~kind:Prov.Forced_drop ~node ~time:now :: msg.events;
      false
  | Some Tap_forward -> true
  | None -> (
      match t.behavior node with
      | Message_dropper p -> not (Prng.bernoulli t.rng p)
      | Silent_dropper -> false
      | Honest | Sparse_advertiser _ -> true)

(* The forwarding commitment hop [b] signs for [a] on receipt, unless [b]
   refuses commitments. *)
let commitment_of t (msg : message) ~now ~a ~b =
  match t.behavior b with
  | Silent_dropper -> None
  | Honest | Message_dropper _ | Sparse_advertiser _ ->
      Some
        (Commitment.issue
           ~forwarder:(World.id_of t.world b)
           ~secret:t.world.World.secrets.(b)
           ~public:(World.public_key_of t.world b)
           ~sender:(World.id_of t.world a) ~destination:msg.dest ~message_id:msg.id ~now)

(* One attempt. The message moves hop by hop from the sender; once the
   destination holds it, the recursion unwinds through the ack, which
   retraces each hop's IP path, last hop first. Peer relations are
   asymmetric, so the known route is the forward one, and per-link loss is
   direction-agnostic here. *)
let forward t (msg : message) ~now =
  let hops = msg.hops in
  let last = Array.length hops - 1 in
  let commitments = Array.make (Array.length hops) None in
  let reached forwarders drop = { forwarders; commitments; drop } in
  let rec from i =
    if i = last then reached last None
    else begin
      let a = hops.(i) and b = hops.(i + 1) in
      if i > 0 && not (forwards t msg ~now ~node:a ~next:b) then
        reached i (Some (Dropped_by_overlay a))
      else
        match msg.paths.(i) with
        | None ->
            (* A rewritten route with no IP path from [a] to [b]: the
               message dies as an overlay drop at [a]. *)
            reached (i + 1) (Some (Dropped_by_overlay a))
        | Some path -> (
            match transmit_over_path t path with
            | Error link -> reached (i + 1) (Some (Dropped_on_ip_link link))
            | Ok () when not (t.availability ~time:now b) -> reached (i + 1) (Some (Hop_offline b))
            | Ok () -> (
                commitments.(i + 1) <- commitment_of t msg ~now ~a ~b;
                match from (i + 1) with
                | { drop = None; _ } as acked -> (
                    match transmit_over_path t path with
                    | Ok () -> acked
                    | Error link -> { acked with drop = Some (Ack_lost_on_link link) })
                | dropped -> dropped))
    end
  in
  from 0

let finish t (msg : message) ~drop ~diagnosis ~no_commitment_from =
  let metrics = t.obs.Obs.metrics in
  let delivered = Option.is_none drop in
  Metrics.observe metrics "msg.attempts" (float_of_int msg.attempts);
  Metrics.incr metrics (if delivered then "msg.delivered" else "msg.dropped");
  Trace.span_close t.obs.Obs.trace ~time:(Engine.now t.engine)
    ~args:
      [
        ("delivered", Trace.Bool delivered);
        ("attempts", Trace.Int msg.attempts);
        ("drop", Trace.String (drop_label drop));
      ]
    msg.span;
  let { id = message_id; attempts; route; _ } = msg in
  msg.on_outcome { message_id; delivered; attempts; route; drop; diagnosis; no_commitment_from }

(* An episode's judgment, once its blame window has closed. Phase A: each
   steward that forwarded the final attempt and is still up runs its
   heavyweight burst and judges its next hop. Then the revision walk
   resolves the judgments, and phase B charges the verdict windows. *)
let judge t (ep : episode) =
  let msg = ep.message and walk = ep.walk and drop_time = ep.drop_time in
  let hops = msg.hops in
  let trace = t.obs.Obs.trace and metrics = t.obs.Obs.metrics and prov = t.obs.Obs.prov in
  let jt = Engine.now t.engine in
  let stamp = drop_time +. t.config.blame.Blame.delta in
  (* A missing ack triggers heavyweight tomography at every steward that
     saw the message (Section 3.2); chaos may starve a burst below the
     usable floor. *)
  let usable = Array.make walk.forwarders heavyweight_rounds in
  for i = 0 to walk.forwarders - 1 do
    if t.availability ~time:jt hops.(i) then
      usable.(i) <- run_heavyweight_burst t hops.(i) ~stamp ~parent:ep.span
  done;
  (* Position i of [judgments] holds what hop i judged of hop i + 1
     (Stewardship). [charges] holds, in route order, the judgments made
     over a commitment, whose windows phase B charges after the revision
     walk. The first uncommitted hop judged is flagged for the reputation
     system. *)
  let judgments = Array.make walk.forwarders None in
  let charges = ref [] and no_commitment = ref None and starved = ref None in
  let flag b = if Option.is_none !no_commitment then no_commitment := Some b in
  for i = 0 to walk.forwarders - 1 do
    let a = hops.(i) and b = hops.(i + 1) in
    if t.availability ~time:jt a then begin
      let pushed =
        match t.behavior a with
        | Message_dropper _ | Silent_dropper -> false (* culpable nodes sit on their verdicts *)
        | Honest | Sparse_advertiser _ -> true
      in
      if not (t.availability ~time:jt b) then begin
        (* Availability probing shows the suspect offline (churned out or
           crashed): absence is not misbehaviour. No verdict window is
           charged -- the chain terminates and routing simply avoids the
           hop. An uncommitted offline hop is still flagged. *)
        if Option.is_none walk.commitments.(i + 1) then flag b;
        judgments.(i) <- Some { Stewardship.target = Stewardship.Offline b; pushed }
      end
      else
        match walk.commitments.(i + 1) with
        | None ->
            (* b never received it, or refuses commitments: a cannot prove
               anything about b. If tomography shows the a->b path bad,
               blame the network; otherwise fall back to the reputation
               system (Section 3.6). *)
            let selection =
              select_votes t ~judge:a ~suspect:b ~links:(links_of msg.paths.(i)) ~drop_time
            in
            if
              Blame.bad_confidence t.config.blame ~up:counted_up selection.Blame.counted
              >= 1. -. t.config.blame.Blame.guilt_threshold
            then judgments.(i) <- Some { Stewardship.target = Stewardship.Network; pushed }
            else flag b
        | Some commitment ->
            (* a judges b over b's egress path (b to its next hop), or over
               a->b when b is the final hop (its ack went missing). *)
            let egress = if i + 2 < Array.length hops then msg.paths.(i + 1) else msg.paths.(i) in
            let charge =
              evaluate_suspect t ~episode:ep.span ~judge:a ~suspect:b ~links:(links_of egress)
                ~drop_time ~commitment ~usable_rounds:usable.(i)
            in
            if
              Array.for_all (function [] -> true | _ :: _ -> false) charge.selection.Blame.counted
              && usable.(i) < min_heavyweight_rounds
            then begin
              (* The burst was starved (chaos) and no archived probes cover
                 the window. Zero evidence defaults blame onto the
                 forwarder, so abstaining beats judging: degrade to an
                 explicit Insufficient_evidence outcome. *)
              if Option.is_none !starved then starved := Some charge
            end
            else begin
              let target =
                match charge.verdict with
                | Blame.Guilty -> Stewardship.Next_hop b
                | Blame.Innocent -> Stewardship.Network
              in
              judgments.(i) <- Some { Stewardship.target; pushed };
              charges := charge :: !charges
            end
    end
  done;
  (* Every selection of this judgment has read the store. *)
  ep.judged <- true;
  prune_behind_horizon t;
  (* When the sender holds no judgment and a downstream steward anchors
     the walk, the diagnosis survived a steward failover: record it as
     episode evidence. *)
  let anchor = Stewardship.anchor judgments in
  (match anchor with
  | Some first when first > 0 && Prov.enabled prov ->
      msg.events <- Prov.failover prov ~kind:Prov.Steward ~node:hops.(first) ~time:jt :: msg.events
  | Some _ | None -> ());
  let events = List.rev msg.events in
  let diagnosis =
    match (anchor, !starved, !no_commitment) with
    | None, Some charge, None ->
        (* An abstention is still a verdict with provenance: its chain
           shows what little evidence existed (often none, or votes a
           defense knob removed) and why replaying it through Blame would
           have been unsafe. *)
        ignore
          (verdict_node prov charge ~kind:Prov.Insufficient ~exonerated:false ~drop_time ~events
            : Prov.node);
        Insufficient_evidence
          {
            judge = charge.judge;
            usable_rounds = charge.usable_rounds;
            required_rounds = min_heavyweight_rounds;
          }
    | _ ->
        let resolve_span =
          Trace.span_open trace ~time:jt ~cat:"stewardship" ~parent:ep.span
            ~args:[ ("first_judge", Trace.Int hops.(Option.value anchor ~default:0)) ]
            "stewardship.resolve"
        in
        let resolution = Stewardship.resolve judgments in
        Trace.span_close trace ~time:jt
          ~args:[ ("exonerated", Trace.Int (List.length resolution.Stewardship.exonerated)) ]
          resolve_span;
        Diagnosed resolution
  in
  (* Phase B: charge verdict windows, honoring exonerations from the
     revision walk -- an exonerated suspect's Guilty verdict is archived as
     Innocent so honest forwarders cannot accrue formal accusations from
     drops they demonstrably did not cause. *)
  let exonerated =
    match diagnosis with
    | Diagnosed resolution -> resolution.Stewardship.exonerated
    | Insufficient_evidence _ -> []
  in
  List.iter
    (fun charge ->
      let was_exonerated =
        match charge.verdict with
        | Blame.Guilty -> List.mem charge.suspect exonerated
        | Blame.Innocent -> false
      in
      let verdict = if was_exonerated then Blame.Innocent else charge.verdict in
      let kind = match verdict with Blame.Guilty -> Prov.Guilty | Blame.Innocent -> Prov.Innocent in
      let vnode = verdict_node prov charge ~kind ~exonerated:was_exonerated ~drop_time ~events in
      record_judgment t charge ~verdict ~drop_time ~episode:ep.span ~vnode)
    (List.rev !charges);
  (* The blame.* family splits diagnosis outcomes so degraded episodes
     (insufficient evidence: nobody judged, nobody cleared) are never
     conflated with correct acquittals (the network or an offline hop took
     the blame after actual judgment). Collusion-accuracy curves need
     exactly this distinction. *)
  (match diagnosis with
  | Diagnosed resolution -> begin
      Metrics.incr metrics "episode.diagnosed";
      match resolution.Stewardship.final with
      | Some (Stewardship.Next_hop _) -> Metrics.incr metrics "blame.node_blamed"
      | Some Stewardship.Network -> Metrics.incr metrics "blame.network_attributed"
      | Some (Stewardship.Offline _) -> Metrics.incr metrics "blame.offline_suspect"
      | None -> Metrics.incr metrics "blame.no_target"
    end
  | Insufficient_evidence _ ->
      Metrics.incr metrics "episode.insufficient_evidence";
      Metrics.incr metrics "blame.insufficient_evidence");
  let diagnosed = match diagnosis with Diagnosed _ -> true | Insufficient_evidence _ -> false in
  Trace.span_close trace ~time:jt ~args:[ ("diagnosed", Trace.Bool diagnosed) ] ep.span;
  finish t msg ~drop:walk.drop ~diagnosis:(Some diagnosis) ~no_commitment_from:!no_commitment

(* Retries exhausted: every steward that saw the final attempt judges its
   next hop once the probe window closes. *)
let diagnose t (msg : message) ~drop_time walk =
  let trace = t.obs.Obs.trace in
  let span =
    Trace.span_open trace ~time:drop_time ~cat:"episode" ~parent:msg.span
      ~args:[ ("id", Trace.String msg.id); ("attempts", Trace.Int msg.attempts) ]
      "episode"
  in
  Trace.instant trace ~time:drop_time ~cat:"episode" ~span
    ~args:[ ("drop", Trace.String (drop_label walk.drop)) ]
    "episode.detect";
  Metrics.incr t.obs.Obs.metrics "episode.started";
  let episode = { message = msg; walk; drop_time; span; judged = false } in
  Queue.push episode t.pending_judgments;
  let judge_at = drop_time +. t.config.blame.Blame.delta +. t.control_latency ~time:drop_time in
  Engine.schedule_at t.engine ~time:judge_at (fun _ -> judge t episode)

let rec attempt t (msg : message) =
  let now = Engine.now t.engine in
  let walk = forward t msg ~now in
  let n = msg.attempts in
  msg.attempts <- n + 1;
  match walk.drop with
  | None -> finish t msg ~drop:None ~diagnosis:None ~no_commitment_from:None
  | Some _ when n < retry_limit ->
      (* Ack timeout: retransmit after bounded exponential backoff. Any
         chaos-injected control latency stretches the timer too. *)
      let delay =
        (retry_base_delay *. (retry_backoff ** float_of_int n)) +. t.control_latency ~time:now
      in
      Metrics.incr t.obs.Obs.metrics "msg.retransmits";
      (* The backoff span closes inside the retransmit's own scheduled
         action — tracing piggybacks on the event the retry needs anyway,
         adding none of its own. *)
      msg.backoff <-
        Trace.span_open t.obs.Obs.trace ~time:now ~cat:"protocol" ~parent:msg.span
          ~args:[ ("attempt", Trace.Int msg.attempts); ("delay", Trace.Float delay) ]
          "retransmit.backoff";
      Engine.schedule t.engine ~delay (fun _ -> retransmit t msg)
  | Some _ -> diagnose t msg ~drop_time:now walk

and retransmit t msg =
  Trace.span_close t.obs.Obs.trace ~time:(Engine.now t.engine) msg.backoff;
  attempt t msg

let send_message t ~from ~dest ~payload:_ ~on_outcome =
  let metrics = t.obs.Obs.metrics and prov = t.obs.Obs.prov in
  let now = Engine.now t.engine in
  let id = fresh_message_id t ~from ~dest in
  let computed = World.overlay_route t.world ~from ~dest in
  let route, events =
    match t.taps.tap_route ~time:now ~from ~dest computed with
    | None -> (computed, [])
    | Some rewritten ->
        Metrics.incr metrics "adversary.route_rewrites";
        if Prov.enabled prov then
          (rewritten, [ Prov.tap_firing prov ~kind:Prov.Route_rewrite ~node:from ~time:now ])
        else (rewritten, [])
  in
  let hops = Array.of_list route in
  Metrics.incr metrics "msg.sent";
  let span =
    Trace.span_open t.obs.Obs.trace ~time:now ~cat:"protocol"
      ~args:
        [
          ("from", Trace.Int from);
          ("id", Trace.String id);
          ("route_hops", Trace.Int (Array.length hops));
        ]
      "message"
  in
  let paths =
    Array.init (Array.length hops - 1) (fun i ->
        World.ip_path t.world ~from_node:hops.(i) ~to_node:hops.(i + 1))
  in
  attempt t
    { id; sender = from; dest; route; hops; paths; span; on_outcome; attempts = 0;
      backoff = Trace.none; events }
