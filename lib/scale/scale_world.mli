(** Million-node worlds: the flat-array core (sorted id universe + alive
    bitset + incrementally maintained tables) wired to a churn timeline and
    an episode routing workload.

    Everything is deterministic in (config, seed). No wall-clock timing
    happens here — bin/scale.ml owns measurement — and every rendered line
    is replayable content only, so two runs with different domain counts
    produce byte-identical transcripts. *)

module Churn = Concilium_netsim.Churn
module Ring = Concilium_overlay.Ring
module Inc_table = Concilium_overlay.Inc_table

type protocol = Pastry | Chord

val protocol_name : protocol -> string

type config = { protocol : protocol; nodes : int; seed : int64; churn_duration : float }

val config :
  ?churn_duration:float -> protocol:protocol -> nodes:int -> seed:int64 -> unit -> config
(** [churn_duration] (default one hour) is the churn timeline's horizon.
    Pastry leaf sets hold 8 nodes a side, and churn is {!Churn.generate}'s
    (2 h up / 10 min down, 95% initially online).
    @raise Invalid_argument when [nodes < 2]. *)

type t

val build : ?pool:Concilium_util.Pool.t -> config -> t
(** Draw the id universe, align the ring with the churn timeline's initial
    state, and (for Pastry) sweep-build the incremental tables. With
    [?pool] the sweep-build fans out over the pool (byte-identical table
    for any domain count — see {!Inc_table.build}). *)

val ring : t -> Ring.t
val table : t -> Inc_table.t option

val clock : t -> float
val events_total : t -> int
val events_applied : t -> int
val events_skipped : t -> int

val events_pending : t -> int

val step_event : t -> bool
(** Apply the next churn event (liveness toggle through the table's delta
    path when one is maintained); [false] when the timeline is exhausted.
    The last two alive nodes never leave. *)

val advance_to : t -> float -> int
(** Apply every pending event with time [<= t]; returns how many were
    applied (skips excluded). *)

type episode_result = {
  routes : int;
  delivered : int;  (** routes whose final hop was the key's root/owner *)
  total_hops : int;
  digest : int64;  (** order-sensitive FNV over per-route hop digests *)
}

val run_episode :
  ?pool:Concilium_util.Pool.t ->
  ?obs:Concilium_obs.Collector.t ->
  t ->
  episode:int ->
  routes:int ->
  episode_result
(** Route [routes] random lookups from random alive sources. PRNGs are
    pre-split per route before dispatch and task [i] writes only slot [i]:
    results are bit-identical for every domain count.

    When [obs] records, the episode is logged as one trace span (category
    ["episode"], at the world's virtual clock) plus [scale.routes] /
    [scale.delivered] counters and a [scale.route_hops] histogram — all in
    the sequential aggregation pass after the fan-out joins, so the sinks
    stay byte-identical for every domain count. *)

val membership_checksum : t -> int64
val state_checksum : t -> int64
(** Membership FNV, folded with the table checksum when one is
    maintained. *)

val header_line : t -> string
val state_line : t -> string
val episode_line : episode:int -> episode_result -> string
val maintenance_line : t -> string
(** Deterministic transcript lines (no timings). *)
