(** A Chord overlay (Stoica et al.), the paper's other canonical structured
    overlay, routed over a {!Ring} universe, with the Concilium density
    test generalised to finger tables.

    A node knows its first {!successor_count} alive successors (the
    leaf-set analogue) and 128 fingers; finger k is the first alive node
    clockwise at or after id + 2^k — the unique, verifiable choice
    analogous to Castro's constrained tables. Nothing is stored per node:
    both are answered on demand from the sorted universe and the alive
    bitset, so churn is a bitset flip. Positions are {!Ring} positions.

    The occupancy measure for the density test is the number of non-empty
    finger intervals: interval k contains another node with probability
    1 - (1 - 2^k / 2^128)^(N-1), so occupancy is again Poisson-binomial and
    the Section 3.1 machinery applies unchanged — the "straightforward
    extension to other overlays" the paper claims. *)

module Poisson_binomial = Concilium_stats.Poisson_binomial

val finger_count : int
(** 128. *)

val successor_count : int
(** 8 (fewer when fewer other nodes are alive). *)

val owner_of_key : Ring.t -> Id.t -> int
(** The key's owner: the first alive position at or after the key
    clockwise, or -1 when nothing is alive. *)

val next_hop : Ring.t -> here:int -> dest:Id.t -> int option
(** Chord forwarding from the alive position [here]: [None] when here's
    id is [dest]; the first alive successor when it owns [dest]; otherwise
    the closest node preceding [dest] among the fingers and the successor
    list. *)

val route : Ring.t -> src:int -> dest:Id.t -> int * int * int64
(** Forward from [src] until the key's owner: (final position, hop count,
    FNV digest of the hop sequence). *)

val interval_occupancy : Ring.t -> int -> int
(** Number of the position's finger intervals [id + 2^k, id + 2^(k+1))
    that contain another alive node — the quantity the generalised density
    test compares. *)

val mean_route_length :
  Ring.t -> sources:int array -> trials:int -> rng:Concilium_util.Prng.t -> float
(** Mean hops of [trials] routes, each from a position drawn uniformly
    from [sources] to a random key. *)

module Model : sig
  val interval_probability : n:int -> index:int -> float
  (** Probability interval k is non-empty in an N-node ring. *)

  val occupancy_model : n:int -> Poisson_binomial.t
  val expected_occupancy : n:int -> float

  val monte_carlo_occupancy :
    rng:Concilium_util.Prng.t -> n:int -> trials:int -> float array
  (** Sampled occupancy fractions (of the 128 intervals), for validating
      the analytic model exactly as Figure 1 does for Pastry. *)
end
