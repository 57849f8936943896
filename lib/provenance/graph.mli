(** Causal-provenance arena for verdicts and their evidence.

    Every verdict and accusation produced by the protocol can carry a
    DAG of the evidence that led to it: the probes (and whether an
    adversary tap touched them), defense-knob interventions, adversary
    tap firings on the episode path, and steward/DHT failovers. Nodes live in a compact
    arena keyed by dense ids — flat arrays, one tag byte plus a few
    scalar operands per node — so recording provenance across a
    million-node soak costs megabytes, not a forest of heap records.

    Determinism contract: a graph is a pure function of the calls made
    into it. Recording draws no randomness, reads no clocks, and
    schedules nothing, so enabling provenance cannot perturb a run.
    Per-shard graphs merged with {!merge} in fixed shard order render
    byte-identical {!jsonl} for any [--domains N].

    Replay contract: a [verdict] node's [probe] children carry exactly
    the votes the protocol counted (post defense filtering), so grouping
    them by link and replaying through [Blame.blame_of_groups]
    must reproduce the recorded blame and verdict bit-for-bit.
    [bin/explain.exe --validate-all] enforces this; a divergence is a
    bug in either the recorder or the protocol. *)

type node = int
(** Dense 1-based node id within one graph. *)

val none : node
(** The absent node (id 0). Constructors on a disabled graph return
    [none]; {!edge} ignores endpoints equal to [none]. *)

type verdict_kind = Guilty | Innocent | Insufficient

type defense_kind =
  | Exclude_suspect  (** [exclude_suspect_probes] removed suspect-sourced votes *)
  | Vote_dedup  (** [one_vote_per_prober] collapsed duplicate votes *)

type tap_kind = Route_rewrite | Forced_drop | Advert_rewrite

type failover_kind = Dht_put | Dht_get | Steward

type t

val create : unit -> t
(** A fresh recording graph. *)

val noop : t
(** The shared disabled graph: constructors return {!none}, [edge] and
    [set_param] are no-ops, queries see an empty graph. *)

val enabled : t -> bool
val node_count : t -> int
val edge_count : t -> int

val set_tap : t -> (string -> unit) -> unit
(** Stream every subsequent node/edge/param as its JSONL line the moment
    it is recorded — the flight recorder's feed. The tap sees node lines
    without the ["children"] field (edges arrive separately as
    [{"edge": [parent, child]}] lines). No-op on a disabled graph. *)

val set_param : t -> string -> float -> unit
(** Record a replay parameter (e.g. ["accuracy"], ["guilt_threshold"]).
    Last write wins. *)

val param : t -> string -> float option

(** {1 Node constructors}

    Each returns the new node's id, or {!none} when the graph is
    disabled. *)

val probe :
  t -> prober:int -> link:int -> time:float -> up:bool -> tapped:bool -> forged:bool -> node
(** One recorded link observation. [tapped] marks a lie injected by an
    adversary observation tap; [forged] marks a wholly fabricated
    report. *)

val verdict :
  t ->
  judge:int ->
  suspect:int ->
  kind:verdict_kind ->
  exonerated:bool ->
  usable_rounds:int ->
  blame:float ->
  drop_time:float ->
  node
(** [exonerated] marks a Guilty evaluation rewritten to Innocent by a
    later exoneration; replay then checks the pre-rewrite verdict. *)

val accusation : t -> accuser:int -> accused:int -> blame:float -> time:float -> node
val defense : t -> kind:defense_kind -> removed:int -> judge:int -> suspect:int -> node
val tap_firing : t -> kind:tap_kind -> node:int -> time:float -> node
val failover : t -> kind:failover_kind -> node:int -> time:float -> node

val edge : t -> parent:node -> child:node -> unit
(** Record that [child] is evidence for [parent]. Ignored if either end
    is {!none}. A child may have many parents (shared evidence). *)

(** {1 Queries} *)

val children : t -> node -> node list
(** Evidence of a node, in the order the edges were recorded. Out-of-range
    ids (including {!none}) yield []. *)

val kind_of : t -> node -> string
(** The node's kind name as rendered in JSONL ("probe", "verdict", ...).
    @raise Invalid_argument on an out-of-range id. *)

val verdicts : t -> node list
(** All verdict nodes, in id order. *)

(** {1 Merge and export} *)

val merge : t array -> t
(** Rebase shard node ids onto a fresh graph, in shard order; params are
    re-applied in shard order (last shard wins a conflict). Byte-stable:
    merging the same shards always yields the same {!jsonl}. *)

val jsonl : t -> string
(** Full dump: one line per param (sorted by name), then one line per
    node in id order, each carrying its ["children"] ids when any.
    Floats render with [%.17g] so doubles round-trip exactly. *)

val node_line : t -> int -> string
(** The JSONL object (no ["children"], no trailing newline) for the
    0-based arena index [i] — the same line the {!set_tap} stream emits. *)
