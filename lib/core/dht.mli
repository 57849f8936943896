(** Accusation repository: a replicated DHT atop the secure overlay
    (paper Section 3.4).

    Accusations are stored under the hash of the accused's public key at
    the key's root node and its closest leaf-set neighbors. Puts and gets
    route over the overlay (hop counts are reported so protocol overhead
    can be metered); in a deployment both would use Castro's secure
    routing primitives, which the simulator's route function stands in
    for. *)

module Id = Concilium_overlay.Id
module Pastry = Concilium_overlay.Pastry
module Pki = Concilium_crypto.Pki

type t

val create : pastry:Pastry.t -> replication:int -> t
(** [replication] total copies per record (root plus neighbors). *)

val key_of_public_key : Pki.public_key -> Id.t

val replica_nodes : t -> key:Id.t -> int list
(** The nodes responsible for a key: its root and the root's nearest
    leaf-set members, [replication] in total. *)

type put_report = {
  replicas_written : int;  (** live replicas the record landed on *)
  put_failed_over : bool;
      (** the key's root candidate was dead, so the write landed on
          next-closest live leaf-set members instead *)
}

type get_report = {
  accusations : Accusation.t list;
  replicas_read : int;  (** live replicas merged into the result *)
  get_failed_over : bool;  (** the read bypassed a dead root candidate *)
}

val put :
  t ->
  from:int ->
  ?alive:(int -> bool) ->
  ?copies:int ->
  accused_key:Pki.public_key ->
  Accusation.t ->
  hops:int ref ->
  put_report
(** Route the accusation from node [from] to every replica of the accused's
    key and store it there. Each replica keeps one record per (accuser,
    accused) pair, the one with the latest primary drop time: a newer
    accusation replaces the pair's record, an older one is ignored, and a
    duplicate (same accuser, accused and drop time) leaves the stored
    record in place, so it is idempotent. [hops] accumulates overlay hops
    consumed.

    [alive] (default: everyone) filters the replica set: dead candidates
    are skipped and the write fails over to the next-closest live leaf-set
    members, keeping [replication] surviving copies whenever enough of the
    leaf set is up. [copies] > 1 models control-plane duplication: the
    whole put is delivered that many times — hops are re-paid, stored state
    is unchanged (idempotence). The report says how many live replicas
    absorbed the write and whether it failed over past a dead root. *)

val put_with :
  supersedes:(incoming:Accusation.t -> stored:Accusation.t -> bool) ->
  t ->
  from:int ->
  ?alive:(int -> bool) ->
  ?copies:int ->
  accused_key:Pki.public_key ->
  Accusation.t ->
  hops:int ref ->
  put_report
(** {!put} with its replacement rule as an argument: {!put} is
    [put_with ~supersedes:newest_wins]. The lockstep checker's
    [dht-stale-overwrite] canary passes a rule that always replaces. *)

val newest_wins : incoming:Accusation.t -> stored:Accusation.t -> bool
(** Whether [incoming]'s primary drop time is later than [stored]'s. *)

val get :
  t ->
  from:int ->
  ?alive:(int -> bool) ->
  accused_key:Pki.public_key ->
  hops:int ref ->
  unit ->
  get_report
(** Fetch accusations for a public key, merged across the live replicas
    ([alive] defaults to everyone): one per (accuser, accused) pair, the
    one with the latest primary drop time any live replica holds (on a
    tie, the first replica's, root first), in pair order. A replica that
    lost its store, or missed a newer write while down, degrades the read
    only if every survivor did too. A get reads only its key's records.
    Hops are metered to the closest live replica. *)

val drop_replica : t -> node:int -> unit
(** The node loses its entire store (disk loss, chaos injection). Later
    puts repopulate it; reads fail over to surviving replicas. *)

val stored_count : t -> node:int -> int
(** Number of records a node holds, one per (accuser, accused) pair of
    each key it stores (for storage-balance checks). *)

val total_records : t -> int
