(** Deterministic chaos injection: a composable, PRNG-seeded fault-plan DSL
    that compiles onto an {!Engine} and replays bit-identically.

    The paper's evaluation freezes membership and assumes a benign control
    plane (Section 4.2); this module supplies the missing adversity as pure
    data. A {!plan} is a list of timed faults — link flaps, burst loss,
    partitions between router sets, node crash/restart on top of {!Churn},
    DHT replica loss, and delay/duplication of control messages. Plans are
    sampled from a seeded {!Concilium_util.Prng} {e before} any parallel
    fan-out, so a scenario produces the same transcript for any domain
    count; compiling the same plan twice onto fresh engines yields the same
    event sequence.

    Layering: this module knows links, nodes and time. Protocol-level
    reactions (what a lost DHT replica or a delayed control message means)
    live with the callers, wired through {!compile}'s hooks and the pure
    query functions. *)

type fault =
  | Link_flap of { link : int; start : float; duration : float }
      (** the link is bad for [start, start + duration) *)
  | Burst_loss of { links : int array; start : float; duration : float }
      (** a correlated incident: every listed link goes bad at once *)
  | Partition of { cut : int array; start : float; duration : float }
      (** sever every link of a cut set, isolating one router set from
          another; build cuts with {!cut_of_paths} *)
  | Node_crash of { node : int; start : float; duration : float }
      (** the node is offline (crash then restart); composes with churn via
          {!node_online} *)
  | Replica_loss of { node : int; time : float }
      (** the node loses its durable store (e.g. its DHT replica contents)
          at [time]; delivered to the caller via [on_replica_loss] *)
  | Control_delay of { start : float; duration : float; extra : float }
      (** control-plane messages started in the window incur [extra]
          seconds of added latency *)
  | Control_duplication of { start : float; duration : float; copies : int }
      (** control-plane publications in the window are delivered [copies]
          times; receivers must be idempotent *)

type plan = fault list

type config = {
  link_flaps_per_hour : float;
  flap_mean_duration : float;
  bursts_per_hour : float;
  burst_width : int;  (** links per correlated burst *)
  burst_mean_duration : float;
  partitions_per_hour : float;
  partition_mean_duration : float;
  crashes_per_hour : float;
  crash_mean_duration : float;
  replica_losses_per_hour : float;
  delays_per_hour : float;
  delay_mean_duration : float;
  delay_extra : float;
  duplications_per_hour : float;
  duplication_mean_duration : float;
  duplication_copies : int;
}

val quiet : config
(** All rates zero: sampling yields the empty plan (the control scenario). *)

val default_config : config
(** Moderate adversity for soak runs: a few of each fault family per
    simulated hour, durations in the minutes range. *)

val paper_rates : config
(** Fault pressure calibrated to the paper's workload intensity (Section
    4.2 keeps 5%% of links bad with 15-minute downtimes): flaps matching
    that duty cycle, plus occasional crashes, replica losses and
    control-plane interference. *)

val sample :
  rng:Concilium_util.Prng.t ->
  config:config ->
  links:int array ->
  nodes:int ->
  cuts:int array array ->
  horizon:float ->
  plan
(** Draw a plan over [0, horizon): Poisson arrivals per fault family at the
    configured rates, exponential durations around the configured means,
    victims uniform over [links] / [nodes] / [cuts]. Families whose victim
    pool is empty are skipped. The result is sorted by start time (ties by
    construction order), so equal seeds give equal plans. *)

type adversary =
  | Collusion of {
      members : int array;
      drop_probability : float;
      corroboration : float;
      start : float;
      duration : float;
    }
      (** a forwarder coalition: members drop forwarded episodes with
          [drop_probability] while corroborating each other's probe reports
          (claiming a colluder's links healthy look bad, i.e. shielding the
          dropper) with probability [corroboration] per report *)
  | Lying_reporters of {
      reporters : int array;
      victim : int;
      corroboration : float;
      start : float;
      duration : float;
    }
      (** tomography liars: reporters bias their probe observations to frame
          [victim]'s links as bad, each lie drawn with probability
          [corroboration] *)
  | Eclipse of { attackers : int array; victim : int; start : float; duration : float }
      (** targeted joins: attackers wedge themselves into overlay routes
          adjacent to [victim] so they can intercept its traffic *)
  | Biased_sampling of {
      samplers : int array;
      favored : int;
      start : float;
      duration : float;
    }
      (** peer-sampling bias: samplers over-advertise [favored] (SecureCyclon's
          threat model), skewing who gets probed and judged *)

type adversary_plan = adversary list
(** Adversary clauses are pure data, like faults: chaos samples {e who} is
    compromised, {e when}, and with what intensity. The semantics — how a
    clause intercepts and forges protocol messages — are compiled above the
    core by [Concilium_adversary] into protocol tap functions, keeping this
    module below the protocol in the layering. *)

val sample_adversaries :
  rng:Concilium_util.Prng.t ->
  nodes:int ->
  ?peers_of:(int -> int array) ->
  horizon:float ->
  unit ->
  adversary_plan
(** Draw adversary campaigns over [0, horizon) under the same discipline as
    {!sample}: Poisson arrivals per strategy family, exponential durations,
    members/victims uniform over [0, nodes). The rates are soak pressure:
    per simulated hour about one coalition of 3 (drop probability 0.8) and
    one cell of 3 lying reporters, and half as many eclipses (4 attackers)
    and sampling-bias campaigns (3 samplers); 15-minute mean durations;
    every coalition and lie is fully corroborated. Lying reporters and biased
    samplers never include their own victim/favored node. Eclipse attackers
    are drawn from [peers_of victim] when provided (an eclipse needs nodes
    already adjacent to the victim's routing state) and fall back to
    arbitrary non-victim nodes otherwise. Fewer than two nodes yields the
    empty plan. Sorted by start time; equal seeds give equal plans. *)

val adversary_counts : adversary_plan -> (string * int) list
(** Strategy-family histogram in a fixed order ("collusion",
    "lying_reporters", "eclipse", "biased_sampling") — transcript-friendly. *)

val cut_of_paths : paths:(bool * bool * int array) list -> int array
(** Links that realise a partition: given each known path as (side of its
    source, side of its destination, traversed links), return the links
    used by some cross-side path but by no same-side path — severing them
    separates the sides without collateral damage to same-side routes.
    Sorted ascending. *)

type t
(** A compiled plan: engine events are scheduled, crash/control windows are
    queryable. *)

val compile :
  ?obs:Concilium_obs.Trace.t ->
  ?on_replica_loss:(node:int -> time:float -> unit) ->
  engine:Engine.t ->
  link_state:Link_state.t ->
  plan ->
  t
(** Schedule the plan's link events onto the engine. Overlapping link
    faults are reference-counted: a link returns to its pre-chaos status
    only when its last active fault ends, and a link already bad for other
    reasons (e.g. a replayed {!Failures} history) is not repaired by chaos.
    Faults whose start precedes the engine clock are clamped to fire
    immediately. [on_replica_loss] fires at each {!Replica_loss} time.

    [obs] (default noop) traces every fault under category ["chaos"]:
    link-family faults emit start/end instants from inside the already-
    scheduled engine actions (tracing adds no engine events, so it cannot
    perturb the run); window faults (crash, control delay/duplication) are
    interval queries rather than events and trace once at compile time with
    their plan start times. *)

val node_online : t -> time:float -> int -> bool
(** [false] while a {!Node_crash} interval covers [time]. Compose with
    churn: [fun ~time v -> Churn.is_online churn ~host:v ~time
    && Chaos.node_online chaos ~time v]. *)

val control_latency : t -> time:float -> float
(** Added control-plane latency at [time]: the sum of the [extra] of every
    active {!Control_delay} window (0 outside them). *)

val put_copies : t -> time:float -> int
(** Delivery multiplicity for control publications at [time]: the maximum
    [copies] over active {!Control_duplication} windows, 1 outside them. *)

val fault_counts : plan -> (string * int) list
(** Fault-family histogram in a fixed order ("link_flap", "burst_loss",
    "partition", "node_crash", "replica_loss", "control_delay",
    "control_duplication") — transcript-friendly. *)
