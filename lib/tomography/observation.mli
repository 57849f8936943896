(** Store of the probe rounds peers contribute.

    Blame attribution (paper Section 3.4) consumes the set probes(l) of
    results covering link l initiated within a +/- Delta window around the
    drop time. In the paper (Section 3.2) a prober publishes one snapshot
    per probe of its tree, and the store keeps exactly that: one record per
    round, holding the round's time and one byte per node of the prober's
    tree for the verdict it reported on the node's parent link, with the
    round's forged reports (links anywhere, repeats allowed) as a side
    list. Each prober's rounds sit in a ring in insertion order, with a
    running maximum of their times, so a window binary-searches each ring
    to the first round that can fall inside it, and pruning trims one ring
    per prober. *)

type observation = {
  time : float;
  prober : int;  (** overlay node index that ran the probe *)
  link : int;  (** physical link id *)
  up : bool;  (** probed status: true = link was up *)
}

type t

val create : Tree.t array -> t
(** An empty store for probers [0 .. Array.length trees - 1]; prober [p]
    probes [trees.(p)]. *)

val no_vote : char
val up_vote : char
val down_vote : char
(** The bytes of a round's verdicts: nothing reported on the node's parent
    link, reported up, reported down. *)

val record :
  t -> prober:int -> time:float -> verdicts:Bytes.t -> forged:(int * bool) list -> unit
(** Append one round of [prober] stamped [time]. [verdicts] holds a byte
    per node of the prober's tree ({!no_vote}, {!up_vote} or
    {!down_vote}); the store copies the first node-count bytes, so the
    caller may reuse the buffer. [forged] are extra (link, up) reports,
    which count after the tree's. Allocates nothing beyond amortised ring
    growth. *)

val count : t -> int
(** Live votes (tree votes and forged reports) in rounds recorded and not
    yet pruned. Counted when asked, by a scan of the live rounds, so that
    recording a round only copies it. *)

type window = {
  votes : observation list array;
      (** one entry per requested link: its votes, in insertion order *)
  excluded : int;  (** votes of the excluded prober, not listed *)
}

val window :
  t -> probers:int array -> exclude:int -> links:int array -> lo:float -> hi:float -> window
(** The votes on each of [links] from rounds with [lo <= time <= hi] of the
    given distinct [probers], minus those of [exclude], which are counted.
    A link's votes come in insertion order: by round, in the order rounds
    were recorded across every prober, and within a round the tree's vote
    before the forged reports, in their order. That is not time order: a
    heavyweight burst stamps its round at drop + Delta when the judgment
    runs, and chaos-injected control delay can hold that judgment back past
    later lightweight rounds. A link's node in a prober's tree is found by
    {!Tree.node_of_link}; the cost is the window's rounds times the links,
    not the link's whole history.
    @raise Invalid_argument if [lo] lies behind the pruned horizon (the
    largest [prune_before] argument so far): such a window may have lost
    votes, so it fails loudly rather than answering short. *)

val prune_before : t -> float -> unit
(** [prune_before t h] raises the pruned horizon to [h] and frees, in each
    prober's ring, the rounds before the first whose running maximum time
    reaches [h]. Every window with [lo >= h] answers exactly as before. A
    horizon at or below the current one does nothing. *)
