(** A fully assembled Concilium deployment in simulation: an Internet-like
    router graph, an overlay of certified end hosts, per-host IP routes and
    probe trees, and the PKI binding it together.

    Construction uses global knowledge, as any simulator must; the protocol
    layers on top only touch the per-node state a real host would hold. *)

module Generate = Concilium_topology.Generate
module Graph = Concilium_topology.Graph
module Routes = Concilium_topology.Routes
module Id = Concilium_overlay.Id
module Pastry = Concilium_overlay.Pastry
module Tree = Concilium_tomography.Tree
module Logical_tree = Concilium_tomography.Logical_tree
module Pki = Concilium_crypto.Pki

type config = {
  topology : Generate.params;
  overlay_fraction : float;  (** fraction of end hosts that join (paper: 3%) *)
  leaf_half_size : int;
  seed : int64;
}

val tiny_config : seed:int64 -> config
(** A few dozen overlay nodes; unit-test sized. *)

val small_config : seed:int64 -> config
(** A few hundred overlay nodes; the default experiment scale. *)

val paper_config : seed:int64 -> config
(** ~1,310 overlay nodes (3% of ~43.6k degree-1 nodes) on a 110,400-node
    topology, matching Section 4.2's scale. *)

type t = {
  config : config;
  generated : Generate.world;
  pastry : Pastry.t;
  host_router : int array;  (** overlay node index -> router id *)
  peers : int array array;  (** overlay node -> its routing peers (overlay indices) *)
  sorted_peers : int array array;  (** [peers], each row sorted ascending ({!is_peer}) *)
  peer_paths : Routes.path option array array;
      (** [peer_paths.(v).(i)] is the IP route from v to [peers.(v).(i)] *)
  trees : Tree.t array;  (** T_H per overlay node *)
  leaf_peers : int array array;
      (** [leaf_peers.(v).(i)] is the overlay node at leaf [i] of v's tree
          ({!Tree.leaf}), -1 when its router hosts none *)
  logical : Logical_tree.t array;
  pki : Pki.t;
  certificates : Pki.certificate array;
  secrets : Pki.secret_key array;
  voucher_offsets : int array;
  voucher_nodes : int array;
      (** CSR over physical links: the overlay nodes whose tree covers link
          [l] are [voucher_nodes.(voucher_offsets.(l))
          .. voucher_nodes.(voucher_offsets.(l+1) - 1)], ascending. *)
}

val build : config -> t

val node_count : t -> int
val id_of : t -> int -> Id.t
val public_key_of : t -> int -> Pki.public_key

val is_peer : t -> int -> int -> bool
(** [is_peer t v peer]: whether [peer] is one of [v]'s routing peers. A
    binary search, so its cost grows with the peer count's logarithm, not
    with the overlay. *)

val ip_path : t -> from_node:int -> to_node:int -> Routes.path option
(** IP route between two overlay nodes, available when [to_node] is a
    routing peer of [from_node]. *)

val overlay_route : t -> from:int -> dest:Id.t -> int list
(** Overlay hops (node indices) from [from] to the root of [dest]. *)

val forest_links : t -> int -> int array
(** Distinct physical links of F_H: the union of H's tree and its routing
    peers' trees (paper Section 3.2). *)

val vouchers : t -> link:int -> int list
(** Overlay nodes whose probe tree covers the link. *)

val all_peer_paths : t -> Routes.path array
(** Every known (host, peer) IP route, flattened — the candidate set the
    failure injector draws from. *)
