(** The integrated Concilium protocol runtime: one object that runs
    lightweight probing, message forwarding with commitments and
    stewardship, blame attribution, verdict windows, formal accusations and
    DHT publication over a simulated deployment.

    It drives every world end to end, from the examples' tiny worlds to the
    1,310-node paper world (the end-to-end benchmark's paper-scale
    diagnosis workload). The paper figures' Monte Carlo sweeps
    ([concilium_experiments]) sample judgments from the same building
    blocks instead of running whole diagnoses.

    Fixed parameters, the paper's (Section 4): verdict windows of w = 100
    entries; m = 6 guilty verdicts before a formal accusation; lightweight
    probe inter-arrivals uniform in [0, 120 s]; 4 DHT replicas per
    accusation key; heavyweight bursts of 50 striped rounds that record a
    link down above 30% inferred loss. Runtime hardening: the probe
    inter-arrival backs off at most 4x while a tree answers nothing; a
    burst with fewer than 10 usable rounds records nothing; an
    unacknowledged message is retransmitted twice, after 1 s and then 2 s
    of backoff. *)

module Id = Concilium_overlay.Id
module Engine = Concilium_netsim.Engine
module Link_state = Concilium_netsim.Link_state
module Observation = Concilium_tomography.Observation
module Prng = Concilium_util.Prng

type behavior =
  | Honest
  | Message_dropper of float
      (** drops messages it should forward with this probability, and
          withholds the verdict it issues when it does forward one, so
          Section 3.5's revision cannot walk past it *)
  | Silent_dropper
      (** refuses commitments AND drops everything — the Section 3.6
          adversary that only the reputation system can address *)
  | Sparse_advertiser of float
      (** advertises only this fraction of its real routing state,
          suppressing knowledge of honest peers (the attack the Section 3.1
          density tests exist to catch) *)

type config = {
  blame : Blame.config;
  exclude_suspect_probes : bool;
      (** the Section 3.4 defense: a suspect's own probe reports never
          count towards its own judgment or evidence. Default [true];
          adversarial soaks disable it to demonstrate self-exculpation *)
  one_vote_per_prober : bool;
      (** the ballot-stuffing defense: per link, each prober's latest
          in-window observation is its only vote ({!Blame.select}, the one
          selection both a verdict and its archived evidence come from).
          Default [true]; disabling lets forged duplicate reports stack *)
  validation_gamma_jump : float;
      (** jump-table density slack used when validating routing-state
          advertisements (Section 3.1); [infinity] disables the density
          test, letting sparse or biased advertisers pass *)
}

val default_config : config
(** Paper blame parameters (a=0.9, Delta=60 s, threshold 0.4) and all three
    anti-gaming defenses on ([exclude_suspect_probes],
    [one_vote_per_prober], gamma_jump 1.3). *)

type forward_decision = Tap_forward | Tap_drop

type taps = {
  tap_route : time:float -> from:int -> dest:Id.t -> int list -> int list option;
      (** called once per message with the overlay route the sender
          computed; [Some route'] substitutes it (eclipse-style joins wedge
          attackers in front of a victim). The rewritten route must keep
          consecutive hops IP-reachable: a hop with no IP path to its
          successor forwards into nothing, and the message dies as
          [Dropped_by_overlay] at that hop. *)
  tap_forward : time:float -> node:int -> sender:int -> next:int -> forward_decision option;
      (** called at every forwarding decision of [node] (never the
          sender); [Some Tap_drop] eats the message, [Some Tap_forward]
          forces forwarding, [None] defers to [node]'s behavior *)
  tap_observation : time:float -> prober:int -> link:int -> up:bool -> bool;
      (** transforms the up/down bit [prober] records for [link] — both
          lightweight rounds and heavyweight-burst conclusions — before it
          enters the observation store (and hence snapshots and archived
          evidence) *)
  tap_advertised_peers : time:float -> node:int -> int array -> int array option;
      (** rewrites the peer set [node] advertises in its routing-state
          snapshot; biased peer-sampling injection over-represents a
          favored node *)
  tap_forged_reports : time:float -> prober:int -> (int * bool) list;
      (** extra (link, up) observations [prober] fabricates after each
          lightweight round — the ballot-stuffing vector the
          [one_vote_per_prober] defense collapses *)
}
(** Tap points where a strategy layer ([Concilium_adversary]) lets
    compromised nodes intercept or forge protocol messages. Determinism
    contract: a tap must be a pure function of its arguments and the
    strategy's own state, drawing randomness only from a PRNG pre-split
    from the scenario seed — never from the runtime's. Firing taps is
    observable in metrics (["adversary.route_rewrites"],
    ["adversary.forced_drops"], ["adversary.lies"],
    ["adversary.advert_rewrites"], ["adversary.forged_reports"]). *)

val no_taps : taps
(** Every tap is the identity; byte-identical behaviour to a tapless
    runtime. *)

type diagnosis =
  | Diagnosed of Stewardship.resolution
  | Insufficient_evidence of { judge : int; usable_rounds : int; required_rounds : int }
      (** every steward that could judge had its heavyweight burst starved
          below the usable floor (crash mid-burst, partition) and held no
          archived probes covering the blame window: the verdict is
          explicitly degraded — no window is charged, nobody is blamed *)

type outcome = {
  message_id : string;
  delivered : bool;  (** destination got the message AND the ack returned *)
  attempts : int;  (** delivery attempts made (1 = no retransmit needed) *)
  route : int list;  (** overlay hops, sender first *)
  drop : drop option;
  diagnosis : diagnosis option;  (** present when not delivered *)
  no_commitment_from : int option;
      (** a hop that never produced a forwarding commitment (it either never
          received the message, or refuses commitments); only the
          complementary reputation system can act on it *)
}

and drop =
  | Dropped_by_overlay of int  (** ground truth: this node ate the message *)
  | Dropped_on_ip_link of int  (** ground truth: this link lost it *)
  | Ack_lost_on_link of int
  | Hop_offline of int  (** the next hop was churned out when the message arrived *)

type t

val create :
  world:World.t ->
  engine:Engine.t ->
  link_state:Link_state.t ->
  rng:Prng.t ->
  ?availability:(time:float -> int -> bool) ->
  ?control_latency:(time:float -> float) ->
  ?put_copies:(time:float -> int) ->
  ?obs:Concilium_obs.Collector.t ->
  ?taps:taps ->
  config ->
  behavior:(int -> behavior) ->
  t
(** [availability] reports whether an overlay node is online at a virtual
    time (default: always). Offline nodes do not probe, do not acknowledge
    probes aimed at them, and silently lose messages routed through them —
    the churn dimension the paper's evaluation held fixed. Pair with
    {!Concilium_netsim.Churn}, composing with {!Concilium_netsim.Chaos}
    node crashes.

    [control_latency] (default 0) adds seconds of delay to control-plane
    timers — retransmit backoff and the judgment barrier — without
    corrupting evidence timestamps; wire it to
    {!Concilium_netsim.Chaos.control_latency}. [put_copies] (default 1)
    reports how many duplicate deliveries a DHT put suffers at a given
    time; wire it to {!Concilium_netsim.Chaos.put_copies} to check
    duplication-safety (puts are idempotent).

    [obs] (default {!Concilium_obs.Collector.noop}) receives the runtime's
    trace and metrics. Spans: ["message"] per send, with
    ["retransmit.backoff"] children and, when retries exhaust, an
    ["episode"] child covering the diagnosis (["probe.heavy_burst"] with a
    nested ["minc.solve"], ["blame.evaluate"], ["stewardship.resolve"];
    stage instants ["episode.detect"], ["episode.verdict"],
    ["episode.accusation"]); lightweight ["probe.round"] spans; DHT
    failover instants ["dht.put.failover"] / ["dht.get.failover"].
    Counters [bytes.probe_stripe + bytes.advert_diff +
    bytes.snapshot_exchange + bytes.heavy_probe] reconcile exactly with the
    {!control_bytes_sent} totals. A recording collector also installs an
    {!Concilium_netsim.Engine.set_on_push} hook sampling queue depth into
    the ["engine.queue_depth"] histogram. Instrumentation draws no
    randomness and schedules no events: results are identical with
    observability on or off. *)

val start_probing : t -> horizon:float -> unit
(** Schedule every node's lightweight probe loop up to the horizon. *)

val send_message :
  t -> from:int -> dest:Id.t -> payload:string -> on_outcome:(outcome -> unit) -> unit
(** Route a message; on ack timeout retransmit up to twice with bounded
    exponential backoff, and only then run the full diagnosis
    (judgments at final drop time + Delta, heavyweight bursts, stewardship
    resolution with failover past dead stewards, accusations). A suspect
    that availability shows offline at judgment time yields an
    {!Stewardship.Offline} target and charges no verdict window — absence
    is not misbehaviour. [on_outcome] fires once the diagnosis completes
    (or immediately after the ack returns). [send_message] reads no byte
    of [payload]: messages are simulated by their route, not their
    contents. *)

val observations : t -> Observation.t
(** The runtime's observation store. The runtime prunes it behind
    min(now, oldest pending drop) - Delta, the start of the oldest blame
    window a pending or later judgment can read, so its
    {!Observation.count} stays bounded however long the run. *)

val dht : t -> Dht.t
val world : t -> World.t

val guilty_count : t -> judge:int -> suspect:int -> int
(** Guilty verdicts currently in the judge's window for the suspect. *)

type advertisement_report = {
  advertiser : int;
  validator : int;
  failures : Validation.failure list;
}

val exchange_advertisements : t -> advertisement_report list
(** One full routing-state exchange (Section 3.1/3.2): every node builds a
    signed snapshot of its routing state — honest nodes faithfully,
    [Sparse_advertiser]s with entries suppressed — with fresh stamps from
    the referenced peers, and each of its routing peers validates it
    (signature, freshness, jump-table occupancy, leaf-set spacing).
    Returns every (advertiser, validator) pair that failed at least one
    check; bandwidth is charged to the advertisers. *)

val control_bytes_sent : t -> int -> int
(** Control-plane bytes a node has sent: lightweight probes, heavyweight
    probing bursts, and snapshot advertisements (full on first exchange,
    diffs after — the Section 4.4 optimisation). Compare with
    {!Bandwidth}'s analytic figures. *)

val mean_control_bytes_per_second : t -> horizon:float -> float

val fetch_accusations : t -> from:int -> accused:int -> Accusation.t list
(** What a prospective peer learns about [accused] from the DHT. *)
