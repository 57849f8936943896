(** Store of per-link probe observations contributed by peers.

    Blame attribution (paper Section 3.4) consumes the set probes(l) of
    results covering link l initiated within a +/- Delta window around the
    drop time; this store indexes observations by link and time to answer
    exactly that query. Each link keeps its observations as columns in
    insertion order, with a running maximum of their times, so a window
    query binary-searches to the first slot that can fall inside it and
    costs what the window holds rather than the link's whole history. *)

type observation = {
  time : float;
  prober : int;  (** overlay node index that ran the probe *)
  link : int;  (** physical link id *)
  up : bool;  (** probed status: true = link was up *)
}

type t

val create : unit -> t

val record : t -> time:float -> prober:int -> link:int -> up:bool -> unit
(** Append to [link]'s column. Link ids index an array: non-negative, and
    best dense. Allocates nothing beyond amortised column growth. *)

val count : t -> int
(** Live observations: recorded and not yet pruned. *)

val on_link : t -> link:int -> lo:float -> hi:float -> keep:(int -> bool) -> observation list
(** Observations of [link] with [lo <= time <= hi] whose prober [keep]
    accepts, in insertion order. That is not time order: a heavyweight
    burst stamps its observations at drop + Delta when the judgment runs,
    and chaos-injected control delay can hold that judgment back past later
    lightweight rounds. [keep] sees each in-window prober, in no promised
    order, before anything is built: what it rejects allocates nothing.
    @raise Invalid_argument if [lo] lies behind the pruned horizon (the
    largest [prune_before] argument so far): such a window may have lost
    votes, so it fails loudly rather than answering short. *)

val prune_before : t -> float -> unit
(** [prune_before t h] raises the pruned horizon to [h] and frees, on each
    link, the prefix of observations whose running maximum time is below
    [h]. Every window with [lo >= h] answers exactly as before. A horizon
    at or below the current one does nothing. *)
