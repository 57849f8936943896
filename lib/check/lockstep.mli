(** Twin execution of a {!Schedule} against the optimized implementations
    and the {!Model} references, with state compared after every operation.

    Each run builds one deterministic world from the schedule's seed — an
    overlay, a PKI with a principal per node, per-node verdict windows, and
    the accusation DHT next to its model store — then applies the
    operations to both sides in lockstep. Every operation is a quiescence
    point: the touched component's observable state (window lengths,
    guilty counts, drop times and the drop times of the evidence an
    accusation would carry; DHT reports, hop charges, per-node stored
    counts, each read record's pair and primary drop time; a revision
    walk's final target and exonerated hops) must agree
    exactly, floats included, since both sides consume identical inputs
    and perform no arithmetic on them. A final sweep re-checks every window
    and store. The first disagreement is returned as a {!divergence}.

    [mutation] deliberately mis-implements one rule on the
    {e implementation} side — the canary proving the checker can see.
    Each mutation reproduces a realistic bug in code [Protocol] runs
    (demanding strictly more than [m] guilty verdicts, ignoring crash
    faults in DHT liveness, trusting a withheld verdict during revision,
    losing no records on replica loss, letting an older accusation
    overwrite a newer one) and must be caught and shrunk to a replayable
    counterexample by the harness. *)

type mutation =
  | Window_accuse_strict
      (** escalate on strictly more than [m] guilty verdicts *)
  | Dht_ignore_crashes
      (** treat every replica as alive, writing to and reading from crashed
          nodes *)
  | Stewardship_trust_withheld
      (** treat every judgment as pushed, so a hop that withheld its
          verdict is exonerated by it *)
  | Dht_ignore_replica_loss
      (** skip {!Concilium_core.Dht.drop_replica}: a node that lost its
          store keeps serving it *)
  | Dht_stale_overwrite
      (** a put replaces the pair's stored record unconditionally, so a
          delayed older accusation overwrites a newer one *)

val mutation_name : mutation -> string
val mutation_of_name : string -> mutation option
val all_mutations : mutation list

type divergence = {
  op_index : int;  (** index into the schedule's operations; [op_count]
                       means the final full-state sweep *)
  component : string;  (** ["window"], ["dht"], ["stewardship"], ["final"] *)
  detail : string;
}

val pp_divergence : Format.formatter -> divergence -> unit

val run : ?mutation:mutation -> Schedule.t -> divergence option
(** [None] when implementation and model agree over the whole schedule.
    Deterministic: equal schedules (and mutation) give equal results. *)
