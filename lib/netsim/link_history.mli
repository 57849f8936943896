(** Record of when each link was bad across a simulation run. The blame
    experiments need the *ground truth* state of arbitrary links at
    arbitrary instants ("was B->C actually good at time t?"), which this
    timeline answers without re-running the failure process.

    Each link keeps its bad time as one sorted array of disjoint intervals,
    merged as they are recorded, so memory tracks distinct bad spans (not
    recorded events) and a point query is a binary search. *)

type t

val create : link_count:int -> t

val add_interval : t -> link:int -> start:float -> finish:float -> unit
(** Record that [link] was bad during [start, finish). Intervals may
    overlap; queries treat their union as bad time. Zero-length intervals
    are accepted and ignored (they contain no instant). *)

val is_bad_at : t -> link:int -> time:float -> bool

val path_is_good_at : t -> links:int array -> time:float -> bool

val intervals : t -> link:int -> (float * float) list
(** Recorded bad time for a link as sorted, disjoint maximal intervals
    (overlapping or touching recordings are merged). *)

val bad_fraction_at : t -> time:float -> relevant:int array -> float
(** Fraction of [relevant] links bad at [time]. *)

val replay :
  t -> engine:Engine.t -> state:Link_state.t -> horizon:float -> unit
(** Schedule set_bad/set_good events on the engine so that [state] tracks
    the timeline while the engine runs (intervals clipped to [0, horizon]),
    link by link in ascending order. *)
