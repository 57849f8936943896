(** Randomized lockstep schedules.

    A schedule is a concrete, replayable sequence of operations against the
    protocol's stateful pieces — verdict windows, the accusation DHT, the
    stewardship revision walk — plus the sizing parameters of the world
    they run in. Schedules are {e data}: every operand is an index, a
    float, a flag or a list of them, so a schedule serializes to JSON
    ({!encode}/{!decode}) and any sub-sequence of its operations is itself
    a valid schedule (which is what lets {!Shrink.ddmin} minimize
    counterexamples by deleting operations).

    {!generate} draws the operation stream from the chaos DSL: a fault plan
    is sampled with {!Concilium_netsim.Chaos.sample} and each fault family
    is translated into the protocol-level operations it would provoke
    (flaps become verdicts, crashes toggle liveness while a pair's
    accusation is re-filed and read back after the restart, replica
    losses drop stores, control delay lands a pair's older accusation
    after its newer one, control duplication re-delivers puts...).
    Collusion campaigns
    end with a message lost inside the coalition, whose members withhold
    their verdicts: a withheld verdict right behind a blamed hop is the
    edge the revision walk must not walk past. *)

(** What a steward's judgment blames, in the three shapes [Protocol]
    builds: its next hop, the network, or its next hop found offline. *)
type steward_target = Blame_next_hop | Blame_network | Next_hop_offline

type steward_judgment = { target : steward_target; pushed : bool }

type op =
  | Win_record of { win : int; guilty : bool; drop_time : float }
  | Dht_put of { from_node : int; accuser : int; accused : int; drop_time : float; copies : int }
  | Dht_get of { from_node : int; accused : int }
  | Dht_crash of { node : int }
  | Dht_revive of { node : int }
  | Dht_drop_replica of { node : int }
  | Steward_resolve of { route : int list; judgments : steward_judgment option list }
      (** One episode's revision walk: [route] holds distinct nodes, sender
          first, and [judgments] holds what each hop but the last holds
          against the hop after it, if anything. *)

type t = {
  seed : int;  (** generator seed, kept for provenance in artifacts *)
  nodes : int;
  window_size : int;
  m : int;  (** guilty-verdict threshold for accusation escalation *)
  replication : int;
  ops : op list;
}

val generate : seed:int -> t
(** Deterministic: equal seeds give equal schedules. Node count, window
    sizing and replication are drawn from small ranges; the operation
    stream mixes a baseline tick of routine operations with the
    translated chaos plan, in event-time order. *)

val with_ops : t -> op list -> t
(** Same world, different operation sequence (used by the shrinker). *)

val op_count : t -> int

val encode : t -> Concilium_util.Json.t
val decode : Concilium_util.Json.t -> (t, string) result
(** The inverse of {!encode}. A malformed schedule is an [Error] that says
    what is wrong; a bad operation is named by its position in ["ops"] and
    its field. A schedule needs at least four nodes, and every node index
    (a window, a DHT node, an accuser, an accused, a route hop) must lie
    in [\[0, nodes)]. *)
