module World = Concilium_core.World

(** Figure 4: trees sampled vs forest coverage.

    For a host H, the forest F_H unions H's probe tree with its routing
    peers' trees. Including the probe results of more peer trees covers
    more of F_H's physical links and raises the mean number of peers able
    to vouch for a link. x = 0 means H relies on its own tree alone. *)

type point = {
  trees_included : int;  (** peer trees beyond H's own *)
  mean_coverage : float;  (** fraction of F_H links covered, averaged over hosts *)
  mean_vouchers : float;  (** mean probing trees per covered F_H link *)
  hosts : int;  (** hosts contributing to this x (those with enough peers) *)
}

val run :
  ?pool:Concilium_util.Pool.t ->
  world:World.t ->
  rng:Concilium_util.Prng.t ->
  host_sample:int ->
  unit ->
  point list
(** Peer trees are included in random order; results average over
    [host_sample] uniformly chosen hosts (capped at the overlay size).
    Hosts fan out over the pool, one pre-split PRNG each, and the per-host
    curves are merged in sample order. *)

val table : point list -> Output.table
(** About 30 evenly strided rows, always including the last point. *)
