(** Physical probe trees (the paper's T_H).

    Host H's tree is the union of the IP routes from H to each of its
    routing peers. Routes produced by a single shortest-path computation
    from H form a tree by construction; leaves are the routing peers. *)

type t

val of_paths : root:int -> paths:Concilium_topology.Routes.path array -> t
(** Each path must start at [root]. Zero-hop paths are ignored.
    @raise Invalid_argument if a path starts elsewhere or the union is not a
    tree (cannot happen for single-source shortest paths). *)

val root : t -> int
(** Router id of the root. *)

val node_count : t -> int
(** Number of tree nodes (routers appearing in the tree). *)

val router_of : t -> int -> int
(** Tree node -> router id. Node 0 is the root. *)

val parent : t -> int -> int
(** Tree parent, -1 for the root. *)

val parent_link : t -> int -> int
(** Physical link id connecting a node to its parent, -1 for the root. *)

val children : t -> int -> int array

val leaf_count : t -> int

val leaf : t -> int -> int
(** [leaf t i] is the tree node of leaf [i]. Leaves are the tree nodes
    that terminate a probe path (the routing peers), in the order their
    paths were supplied (duplicates removed). *)

val path_start : t -> int -> int
(** Leaf [i]'s root-to-leaf path is [path_node t k] for
    [path_start t i <= k < path_start t (i + 1)]: its tree nodes top-down,
    the root left out, each standing for the physical link above it
    ({!parent_link}). [i] ranges over [0 .. leaf_count t]; the paths are
    stored once, back to back, so walking one allocates nothing. *)

val path_node : t -> int -> int

val physical_links : t -> int array
(** Distinct physical link ids appearing in the tree, ascending. *)
