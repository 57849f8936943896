(** Shortest-path IP routes.

    Routes are computed by breadth-first search with deterministic
    tie-breaking (neighbors visited in adjacency order), standing in for the
    stable Internet routes the paper assumes (Zhang et al. observe routes
    stable for a day or more, so Concilium treats the link map as quasi-
    static). *)

type path = {
  nodes : int array;  (** visited routers, source first, destination last *)
  links : int array;  (** traversed link ids; length = length nodes - 1 *)
}

val hop_count : path -> int

val shortest_paths : Graph.t -> source:int -> targets:int array -> path option array
(** One BFS from [source] over the whole graph; [None] for unreachable
    targets. Paths share no mutable state and may be retained. This is the
    general-graph router and the oracle for [Hierarchy]. *)

val shortest_path : Graph.t -> source:int -> target:int -> path option

val link_depth_fraction : path -> int -> float
(** Position of the i-th link of a path, normalised to [0, 1]: 0 at the
    source edge, 1 at the destination edge. Used to bias failures towards
    the network edge (Section 4.2's beta-distributed depth). *)

(** Shortest paths on a transit–stub graph, from per-region segments.

    The transit core is the [Transit] nodes; the stub domains are the
    connected components of the other nodes, and each must reach the core
    by exactly one link, its gateway link. A whole-graph BFS then enters a
    stub domain only through its gateway link and never leaves and
    re-enters one, so within each domain, and within the core, it discovers
    nodes in the order a BFS confined to that region does, with the same
    parents. A route is therefore the source's path to its gateway (one BFS
    inside the source's domain), the gateway link, the core path from the
    source's attachment router (one BFS over the core per root, cached), the
    target domain's gateway link and that domain's BFS tree from its
    gateway (built once per domain). The results equal {!shortest_paths},
    tie-breaks included. Memory is O(nodes + core²): the per-root core trees
    are indexed by core position, not by node. *)
module Hierarchy : sig
  type t
  (** The region split plus the core and gateway trees cached so far; use
      from one domain at a time. *)

  val create : Graph.t -> classes:Generate.node_class array -> t
  (** [classes] gives each node's class, as [Generate.world] does.
      @raise Invalid_argument if a stub domain has other than exactly one
      link into the core. *)

  val shortest_paths : t -> source:int -> targets:int array -> path option array
  (** Same result as [Routes.shortest_paths] on the graph, element by
      element; [None] where the core is disconnected between the two ends. *)
end
