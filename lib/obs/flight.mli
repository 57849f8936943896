(** Flight recorder: a bounded ring of the most recent observability
    events, dumped as a JSONL artifact when a soak invariant or lockstep
    conformance check fails — failures ship with their trailing context.

    Entries are pre-rendered JSONL lines fed by the {!Trace.set_tap} and
    {!Concilium_provenance.Graph.set_tap} streams (via {!attach}) or by
    {!note} directly. The ring is bounded: once full, each new line evicts
    the oldest and bumps the dropped count, so a week-long soak holds
    memory constant while the last [capacity] events before a failure
    survive.

    The recorder is passive — it never mutates what it observes — so
    attaching it cannot perturb a run. Its dump is a pure function of the
    lines recorded, hence deterministic whenever the feeding run is. *)

type t

val capacity : int
(** 4096 lines. *)

val create : unit -> t

val length : t -> int
(** Lines currently held (≤ capacity). *)

val dropped : t -> int
(** Lines evicted since creation. *)

val recorded : t -> int
(** Total lines ever recorded (held + dropped). *)

val note : t -> string -> unit
(** Append one pre-rendered line (no trailing newline). *)

val attach : t -> Collector.t -> unit
(** Feed the collector's trace records and provenance deltas into the
    ring as they happen. No-op for disabled sinks. *)

val dump : reason:string -> t -> string
(** Header line [{"flight_recorder": {"reason", "entries", "dropped",
    "capacity"}}] followed by the held lines, oldest first, one per
    line. *)

val write : path:string -> reason:string -> t -> unit
(** {!dump} to a file. *)
