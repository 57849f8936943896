(** A whole Pastry overlay, constructed from global knowledge (as a
    simulator may) but routed using only per-node local state.

    This is a node-indexed view of the flat core that the million-node
    scale worlds also run on: the identifiers form a {!Ring}, the
    constrained ("secure") jump tables are an {!Inc_table}, byte-for-byte
    {!Routing_table.build_secure}, and forwarding is {!Inc_table.next_hop}:
    finish within the leaf set when possible, otherwise jump by prefix,
    otherwise fall back to any known strictly-closer peer. Node indices
    follow the identifier array given to {!build}; ring positions stay
    internal. *)

type node = {
  index : int;
  id : Id.t;
  leaf_set : Leaf_set.t;
  occupancy : int;  (** filled jump-table slots, all {!Id.digits} rows *)
}

type t

val build : ?leaf_half_size:int -> Id.t array -> t
(** Build an overlay over the given identifiers (default [leaf_half_size] 8
    — a 16-member leaf set). Duplicate identifiers are rejected. *)

val node_count : t -> int
val node : t -> int -> node
val leaf_half_size : t -> int

val index_of_id : t -> Id.t -> int option
val numerically_closest : t -> Id.t -> int
(** Index of the node whose identifier minimises ring distance to the key
    (ties to the smaller identifier) — the key's root. *)

val next_hop : t -> from:int -> dest:Id.t -> int option
(** [None] when [from] is already the destination's root. *)

val route : t -> from:int -> dest:Id.t -> int list
(** Node indices visited, starting with [from] and ending at the root of
    [dest]. @raise Failure if forwarding livelocks (cannot happen on
    well-formed overlays; guarded for safety). *)

val routing_peers : t -> int -> int array
(** Distinct node indices appearing in a node's jump table or leaf set,
    ascending — the leaves of its tomography tree T_H. *)

val mean_routing_peer_count : t -> float
