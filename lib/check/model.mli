(** Small, obviously-correct reference models of the protocol's stateful
    pieces, in the style of the kernel oracles under test/ (the MINC and
    probe-round references): each module restates a paper-level contract
    with naive lists, linear scans and position walks, and {!Lockstep}
    executes it in step with the optimized implementation, comparing state
    at every quiescence point.

    The models deliberately share only {e inputs} with the implementations
    (the overlay under test, accusation values, judgment values, key
    derivation — data, not state machinery): window arithmetic,
    replication walks, store bookkeeping and the revision walk are all
    re-derived from scratch here, so an off-by-one in the optimized
    ring-buffer, failover or stewardship path cannot cancel out. *)

module Id = Concilium_overlay.Id
module Pastry = Concilium_overlay.Pastry
module Pki = Concilium_crypto.Pki
module Accusation = Concilium_core.Accusation
module Stewardship = Concilium_core.Stewardship

(** Reference sliding verdict window: a plain list, oldest first, truncated
    to the newest [window_size] on record. *)
module Window : sig
  type entry = { guilty : bool; drop_time : float }

  type t

  val create : window_size:int -> t
  (** @raise Invalid_argument when [window_size <= 0]. *)

  val record : t -> entry -> unit
  val length : t -> int
  val guilty_count : t -> int
  val should_accuse : t -> m:int -> bool

  val drop_times : t -> float list
  (** Oldest first. *)

  val supporting : t -> m:int -> float list
  (** The drop times of the newest [m - 1] guilty verdicts ever recorded
      before the newest guilty one, oldest first: whose evidence an
      accusation filed now carries. *)
end

(** Reference accusation repository: replica placement re-derived by linear
    scan (root = node minimising ring distance to the key, then the root's
    leaf-set members by distance), contents held as one flat list of
    (node, DHT key, accuser|accused, drop time) entries. Mirrors the
    {!Concilium_core.Dht} contract including failover past dead
    candidates, replica loss and the newest-wins rule: a node keeps one
    record per (key, pair), replaced on put only by a strictly later drop
    time (so duplicate deliveries are idempotent and a delayed older
    accusation is ignored), and a get reports each pair at the latest drop
    time any live replica holds. *)
module Store : sig
  type t

  val create : pastry:Pastry.t -> replication:int -> t

  val replica_candidates : t -> key:Id.t -> int list
  (** Full failover ordering: root first, then the root's leaf-set members
      by ring proximity to the key. *)

  type put_report = { replicas_written : int; put_failed_over : bool; hops : int }

  val put :
    t ->
    from:int ->
    alive:(int -> bool) ->
    copies:int ->
    accused_key:Pki.public_key ->
    Accusation.t ->
    put_report

  type get_report = {
    records : (string * float) list;
        (** each accuser|accused pair of the merged result with its
            primary drop time, in pair order *)
    replicas_read : int;
    get_failed_over : bool;
    hops : int;
  }

  val get : t -> from:int -> alive:(int -> bool) -> accused_key:Pki.public_key -> get_report

  val drop_replica : t -> node:int -> unit
  val stored_count : t -> node:int -> int
  val total_records : t -> int

  val pair_key : Accusation.t -> string
  (** The accuser|accused record key, re-derived from the documented
      contract. *)

  val drop_time : Accusation.t -> float
  (** The primary evidence's drop time, which the newest-wins rule
      compares. *)
end

(** Reference revision walk (paper Section 3.5) over one route's
    positions, the {!Concilium_core.Stewardship.resolve} contract as
    [Protocol] runs it. [judgments.(i)] is what the hop at [route.(i)]
    holds against its successor [route.(i + 1)], if anything. The walk
    starts at the first position holding a judgment (the steward failover
    anchor); a [Network] or [Offline] judgment ends it; a [Next_hop]
    judgment moves on when the next position's judgment is present and
    pushed, exonerating that hop, and otherwise ends with [Next_hop] of
    that hop. No table and no visited set: positions only move
    downstream. *)
module Steward : sig
  type resolution = { final : Stewardship.target option; exonerated : int list }

  val resolve : route:int array -> Stewardship.judgment option array -> resolution
  (** [judgments] has one entry per hop but the last. *)
end
