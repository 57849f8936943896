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

val draw :
  rng:Concilium_util.Prng.t ->
  loss_of_link:(int -> float) ->
  tree:Tree.t ->
  behavior:(int -> leaf_behavior) ->
  fates:Bytes.t ->
  received:bool array ->
  acked:bool array ->
  unit
(** The probe kernel: one round into the caller's buffers. [behavior] maps
    a leaf index ({!Tree.leaf}) to its conduct. Leaf by leaf, a link's fate
    is drawn at its first visit and kept in [fates], a byte per tree node;
    a path stops at its first dropped link; a suppressing leaf that got the
    probe draws its ack right after its path. [received] and [acked] get
    one entry per leaf. The buffers may be longer than the tree needs; the
    entries past it are left alone. Allocates nothing. *)

val probe_round :
  rng:Concilium_util.Prng.t ->
  loss_of_link:(int -> float) ->
  tree:Tree.t ->
  ?behavior:(int -> leaf_behavior) ->
  unit ->
  round
(** {!draw} into fresh buffers; [behavior] defaults to all-honest. *)

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
    by logical node; entry 0 is [Indeterminate]): [Probed_up] when some
    leaf below acked (the chain demonstrably passed the packet),
    [Probed_down] when the parent demonstrably received it but no leaf
    below acked, and [Indeterminate] otherwise. *)

val classify_into : Logical_tree.t -> bool array -> link_verdict array -> unit
(** {!classify_round} into the first node-count entries of a buffer,
    allocating nothing. *)

