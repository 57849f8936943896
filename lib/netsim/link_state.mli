(** Instantaneous per-link status. A link is either good (residual loss
    [good_loss], e.g. light congestive noise) or bad (loss [bad_loss],
    modelling the high-loss incidents of Mahajan et al. that last tens of
    minutes). *)

type t

val create : link_count:int -> good_loss:float -> bad_loss:float -> t
val link_count : t -> int
val is_bad : t -> int -> bool
val set_bad : t -> int -> unit
val set_good : t -> int -> unit
val bad_count : t -> int
val loss_rate : t -> int -> float
val good_loss : t -> float
val bad_loss : t -> float

val path_is_good : t -> int array -> bool
(** No bad link along the given link sequence. *)
