(** Stateful adversary strategies compiled onto the protocol's tap points.

    The chaos DSL samples {e who} is compromised and {e when}
    ({!Concilium_netsim.Chaos.adversary_plan}); this module supplies the
    {e behaviour}: it compiles a plan against a concrete world into the
    {!Concilium_core.Protocol.taps} record, precomputing for each campaign
    the link sets its members lie about:

    - {b Collusion}: members drop forwarded episodes with the configured
      probability while corroborating each other's innocence — their probe
      reports claim the coalition's egress links ("shield links") are down,
      so a judged colluder looks like a victim of the network. Members also
      stuff duplicate forged "down" reports into each round (the vector the
      [one_vote_per_prober] defense collapses).
    - {b Lying reporters}: reporters bias tomography inputs against a
      victim — their reports claim the victim's egress links ("frame
      links") are up even when probes saw loss, so drops caused by the
      network settle on the victim; plus forged duplicate "up" reports.
    - {b Eclipse}: attackers wedge themselves into overlay routes
      immediately upstream of the victim (only where IP reachability
      holds, so the rewrite is routable) and eat the traffic they
      intercept.
    - {b Biased sampling}: samplers rewrite their advertised peer sets to
      over-represent a favored node, skewing who gets probed and judged —
      pair with [Sparse_advertiser] behaviour so the Section 3.1 density
      test has something to catch.

    Determinism: all strategy randomness comes from the single [rng] given
    to {!compile}, which callers pre-split from the scenario seed before
    any parallel fan-out. Taps draw nothing from the protocol's own PRNG,
    and tap calls happen in engine event order, so a (seed, plan) pair
    replays byte-identically for any domain count. *)

module Chaos = Concilium_netsim.Chaos
module Protocol = Concilium_core.Protocol
module World = Concilium_core.World
module Prng = Concilium_util.Prng

type t

val compile : world:World.t -> rng:Prng.t -> Chaos.adversary_plan -> t
(** Compile a plan's campaigns against [world]. A compromised prober stuffs
    6 duplicate forged reports per lied-about link per lightweight round.
    An empty plan compiles to {!Protocol.no_taps} behaviour. *)

val taps : t -> Protocol.taps
(** The tap record to pass to {!Protocol.create}. *)

val compromised : t -> int array
(** Every node any campaign compromises (members, reporters, attackers,
    samplers), sorted ascending, distinct. *)

val is_compromised : t -> int -> bool

val victims : t -> int array
(** Lying-reporter and eclipse victims, sorted ascending, distinct. These
    are honest nodes the adversary works to frame or isolate; soak
    invariants check they are never formally accused. *)

val biased_samplers : t -> int array
(** Nodes running a biased-sampling campaign, sorted ascending, distinct.
    Scenario drivers give these [Sparse_advertiser] behaviour so the
    density validation has a signal to flag. *)

(* ---------- Targeted plan builders ----------

   [Chaos.sample_adversaries] draws campaigns uniformly, which is right
   for background pressure but makes detection assertions stochastic: a
   sampled coalition may never sit on a message route. The builders below
   construct campaigns aimed at a concrete route, so soak scenarios (and
   their disabled-defense canaries) exercise the attack deterministically. *)

val targeted_route :
  world:World.t ->
  rng:Prng.t ->
  min_hops:int ->
  (int * Concilium_overlay.Id.t * int list) option
(** Draw (sender, destination id, overlay route) triples until the route
    has at least [min_hops] hops (bounded trials; [None] if the world is
    too small to yield one). Deterministic per [rng]. *)

val self_exculpation_gap : world:World.t -> route:int list -> bool
(** Whether the route's first forwarder has a link on its egress path (to
    the second forwarder) that no prober visible to the sender vouches for
    except the forwarder itself. On such a route, disabling
    [exclude_suspect_probes] lets the forwarder acquit itself with a lone
    uncontradicted "down" vote (Section 3.4); scenario drivers prefer
    gap routes so the suspect-exclusion canary flips deterministically. *)

val coalition_coverage : world:World.t -> route:int list -> int
(** How many potential helpers — peers of the sender not on the route —
    have a probe forest covering at least one link of the path the judge
    inspects (first forwarder to second forwarder). Shield corroboration
    and forged-ballot stuffing only move the verdict when helpers cover
    the judged links, so scenario drivers prefer routes where this is
    at least the coalition's helper count. *)

val collusion_against_route :
  world:World.t ->
  route:int list ->
  size:int ->
  drop_probability:float ->
  corroboration:float ->
  start:float ->
  duration:float ->
  Chaos.adversary option
(** A coalition around the route's first forwarder: the forwarder drops,
    and up to [size - 1] further members are drawn from the {e sender}'s
    peers (so their corroborating reports are visible to the judge).
    [None] when the route has fewer than 3 hops. *)

val lying_against_route :
  world:World.t ->
  route:int list ->
  size:int ->
  corroboration:float ->
  start:float ->
  duration:float ->
  (Chaos.adversary * int array) option
(** A lying-reporter cell framing the route's first forwarder: reporters
    are drawn from the sender's peers (visible to the judge). Also returns
    the victim's egress links — the scenario faults these so drops the
    network caused land on the victim's watch, giving the liars something
    to flip. [None] when the route has fewer than 3 hops or no reporters
    are available. *)

val eclipse_against_route :
  world:World.t ->
  route:int list ->
  size:int ->
  start:float ->
  duration:float ->
  Chaos.adversary option
(** Attackers that can legally wedge in front of the route's first
    forwarder: peers of the sender that have an IP route to the victim and
    are not already on the route. [None] when no such node exists. *)
