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

val path_starts : t -> int array

val path_nodes : t -> int array
(** Every leaf's root-to-leaf path, stored once, back to back: leaf [i]'s
    is [(path_nodes t).(k)] for
    [(path_starts t).(i) <= k < (path_starts t).(i + 1)], its tree nodes
    top-down, the root left out, each standing for the physical link above
    it ({!parent_link}); [path_starts] has [leaf_count t + 1] entries. Both
    are the tree's own arrays, not copies: the probe kernel walks them in
    place, since under [-opaque] a call per node would cost more than the
    node's work. Callers must not write them. *)

val parent_links : t -> int array
(** {!parent_link} of every node, the tree's own array, shared as
    {!path_nodes} is. *)

val physical_links : t -> int array
(** Distinct physical link ids appearing in the tree, ascending. *)

val node_of_link : t -> int -> int
(** The tree node whose parent link is the given physical link, or -1 when
    the link is not in the tree: a binary search over the nodes sorted by
    parent link, built once with the tree. *)

val find_links : t -> int array -> int array -> unit
(** [find_links t sorted nodes] sets [nodes.(i)] to
    [node_of_link t sorted.(i)] for each link of [sorted], which must be
    ascending: one merge with the tree's ascending links, which costs less
    than a binary search per link when a path's links are all looked up in
    one tree. *)
