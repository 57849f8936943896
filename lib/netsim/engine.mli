(** Discrete-event simulation engine: a virtual clock and an event heap.
    Events scheduled for the same instant fire in scheduling order. *)

type t

val create : unit -> t
(** A fresh engine, its clock at 0. *)

val now : t -> float

val schedule_at : t -> time:float -> (t -> unit) -> unit
(** @raise Invalid_argument if [time] is NaN or in the simulated past
    (either would corrupt the event-heap order). *)

val schedule : t -> delay:float -> (t -> unit) -> unit
(** [schedule t ~delay f] = [schedule_at t ~time:(now t +. delay) f];
    [delay] must be non-negative and not NaN. *)

val pending : t -> int

val capacity : t -> int
(** Event-heap backing-array length. Popping shrinks it once occupancy
    falls below a quarter, so long runs keep memory proportional to the
    live queue rather than its high-water mark. *)

val set_on_push : t -> (pending:int -> unit) -> unit
(** Observability hook, called with the queue depth after every schedule.
    The hook must be passive (no scheduling, no randomness): it exists so a
    metrics sink can sample queue depth without perturbing the run. Unset
    by default, costing one branch per push. *)

val run : t -> unit
(** Process events until the heap is empty. *)

val run_until : t -> float -> unit
(** Process every event with time <= the horizon, then advance the clock to
    the horizon. Later events stay queued. *)

val step : t -> bool
(** Process one event; [false] if none remained. *)
