(** Striped-unicast probe simulation (paper Section 3.2).

    A probe round sends one packet per routing peer, back-to-back. Because
    the stripe traverses shared interior routers within a tight window, the
    packets share fate on shared links — the round behaves like a single
    multicast packet, which is exactly how the simulation draws it: one
    Bernoulli trial per physical link per round.

    A leaf may withhold acknowledgments for probes it received: the
    protocol models an offline routing peer this way, since from the
    prober's vantage it never acks. *)

type leaf_behavior =
  | Honest
  | Suppress_acks of float  (** drop the ack with this probability *)

type round = {
  received : bool array;  (** ground truth per leaf index *)
  acked : bool array;  (** what the prober observed *)
}

val probe_round :
  rng:Concilium_util.Prng.t ->
  loss_of_link:(int -> float) ->
  tree:Tree.t ->
  ?behavior:(int -> leaf_behavior) ->
  unit ->
  round
(** [behavior] maps a leaf index ({!Tree.leaf}) to its conduct; defaults
    to all-honest. Leaf by leaf, a link's fate is drawn at its first visit,
    a path stops at its first dropped link, and a suppressing leaf that got
    the probe draws its ack right after its path. Allocates the round and
    a byte per tree node, nothing per link visited. *)

val probe_rounds :
  rng:Concilium_util.Prng.t ->
  loss_of_link:(int -> float) ->
  tree:Tree.t ->
  ?behavior:(int -> leaf_behavior) ->
  count:int ->
  unit ->
  round array

val acked_matrix : round array -> bool array array
(** Ack vectors only, the input shape MINC inference consumes. *)

type link_verdict = Probed_up | Probed_down | Indeterminate

val classify_round : Logical_tree.t -> bool array -> link_verdict array
(** What a single lightweight round reveals about each logical link (indexed
    by logical node; entry 0 is meaningless): [Probed_up] when some leaf
    below acked (the chain demonstrably passed the packet), [Probed_down]
    when the parent demonstrably received it but no leaf below acked, and
    [Indeterminate] otherwise. *)

