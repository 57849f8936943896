(** Store of per-link probe observations contributed by peers.

    Blame attribution (paper Section 3.4) consumes the set probes(l) of
    results covering link l initiated within a +/- Delta window around the
    drop time; this store indexes observations by link and time to answer
    exactly that query. *)

type observation = {
  time : float;
  prober : int;  (** overlay node index that ran the probe *)
  link : int;  (** physical link id *)
  up : bool;  (** probed status: true = link was up *)
}

type t

val create : unit -> t
val record : t -> observation -> unit
val count : t -> int

val on_link : t -> link:int -> lo:float -> hi:float -> observation list
(** Observations of [link] with [lo <= time <= hi], oldest first. *)

val prune_before : t -> float -> unit
(** Discard observations older than the horizon, bounding memory in long
    runs. *)
