(** Logical (reduced) probe trees.

    Tomographic inference cannot localise loss within an unbranched chain of
    physical links — every chain member affects the same set of leaves — so
    inference runs on the logical tree in which each maximal chain is
    collapsed into one logical link. Logical node 0 is the root; every
    other logical node is a branching point or a leaf of the physical tree. *)

type t

val of_tree : Tree.t -> t

val node_count : t -> int

val parent : t -> int -> int
(** Logical parent, -1 for the root. A parent's number is below its
    children's, so a sweep from the last node down meets children first. *)

val children : t -> int -> int array

val leaf : t -> int -> int
(** [leaf t i] is the logical node of the physical tree's leaf [i]
    ({!Tree.leaf}). *)

val leaf_count : t -> int

val chain : t -> int -> int array
(** Physical link ids collapsed into the logical link above a node (root ->
    empty). Ordered top-down. A fresh copy. *)

(** {2 Shared arrays}

    The arrays behind the accessors above, the logical tree's own, not
    copies: the per-node loops of a probe round (classification, MINC's
    counts, the protocol's votes) read them in place, since under [-opaque]
    a call per node would cost more than the node's work. Callers must not
    write them. *)

val parents : t -> int array
(** {!parent} of every logical node. *)

val leaves : t -> int array
(** {!leaf} of every leaf index. *)

val chain_starts : t -> int array

val chain_nodes : t -> int array

val chain_links : t -> int array
(** Logical node [k]'s chain, top-down, is slots
    [(chain_starts t).(k) <= i < (chain_starts t).(k + 1)] ([node_count t + 1]
    starts): [(chain_links t).(i)] is a physical link and
    [(chain_nodes t).(i)] the physical tree node below it. *)
