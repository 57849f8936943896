(** Bounded FIFO buffer that discards the oldest element when full.
    Concilium's sliding verdict windows (the last [w] verdicts issued for a
    peer, paper Section 3.4) are ring buffers. *)

type 'a t

val create : int -> 'a t
(** [create w] holds at most [w] elements. [w] must be positive. *)

val capacity : 'a t -> int
val length : 'a t -> int
val is_full : 'a t -> bool

val push : 'a t -> 'a -> 'a option
(** Append a newest element; returns the evicted oldest element if the
    buffer was full. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** Fold oldest-to-newest. *)

val count : ('a -> bool) -> 'a t -> int
val to_list : 'a t -> 'a list
