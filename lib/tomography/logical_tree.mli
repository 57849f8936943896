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
    empty). Ordered top-down. A fresh copy, unlike {!chain_link}. *)

val chain_length : t -> int -> int

val chain_link : t -> int -> int -> int
(** [chain_link t node i] is [(chain t node).(i)], without the copy. *)
