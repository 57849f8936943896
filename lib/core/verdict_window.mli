(** Per-peer sliding verdict windows (paper Section 3.4).

    A judges each of B's dropped messages and keeps the last [w] verdicts
    with their drop times. When at least [m] of the windowed verdicts are
    guilty, A escalates to a formal accusation, which carries the evidence
    of the newest [m] guilty verdicts. So that is all the window archives:
    an innocent verdict keeps no evidence, and a guilty verdict's evidence
    is dropped once [m] newer guilty verdicts have been recorded. Recording
    is O(1) whatever [w]. *)

type 'evidence t

val create : window_size:int -> m:int -> 'evidence t
(** [window_size] is [w]; [Protocol] passes {!Accusation.m} as [m].
    @raise Invalid_argument unless both are positive. *)

val record : 'evidence t -> Blame.verdict -> drop_time:float -> 'evidence -> unit
(** Append the newest verdict, evicting the oldest once [w] are held. The
    evidence is archived only for a [Guilty] verdict. *)

val length : 'evidence t -> int
val guilty_count : 'evidence t -> int

val should_accuse : 'evidence t -> bool
(** At least [m] guilty verdicts currently in the window. *)

val entries : 'evidence t -> (Blame.verdict * float) list
(** The windowed verdicts with their drop times, oldest first. *)

val supporting : 'evidence t -> 'evidence list
(** The evidence of the newest [m - 1] guilty verdicts before the newest
    guilty one, oldest first (fewer while fewer guilty verdicts have been
    recorded): what an accusation filed on the newest guilty verdict
    carries besides its own. When {!should_accuse} holds, all of them are
    still in the window. *)

val evidence_held : 'evidence t -> int
(** Pieces of evidence archived: at most [m]. *)
