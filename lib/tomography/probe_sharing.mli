(** Consolidated probing (paper Section 3.7).

    Hosts that trust each other and sit in the same stub network can take
    turns probing the multi-forest induced by their collective routing
    state, or delegate probing to a shared gateway. Links appearing in
    several members' trees are then probed once instead of once per member,
    amortising the heavyweight probing cost.

    The model here quantifies that saving: individual cost is proportional
    to the summed tree sizes, consolidated cost to the size of the union,
    with the per-link unit cost calibrated so a lone host's figure matches
    the Section 4.4 heavyweight budget. *)

type plan = {
  members : int array;  (** overlay nodes sharing the stub *)
  individual_links : int;  (** sum over members of their tree's link count *)
  consolidated_links : int;  (** distinct links in the multi-forest *)
  amortization : float;  (** consolidated / individual, in (0, 1] *)
}

val plan : trees:int array array -> members:int array -> plan
(** [trees.(v)] is the sorted physical-link array of node v's probe tree
    (as produced by {!Tree.physical_links}). *)

val individual_bytes : plan -> per_tree_bytes:float -> float
(** Total probing cost if every member probes alone: members *
    per_tree_bytes (the Section 4.4 figure). *)

val consolidated_bytes : plan -> per_tree_bytes:float -> float
(** Cost when the collective probes each distinct link once: the individual
    total scaled by the amortization factor. *)
