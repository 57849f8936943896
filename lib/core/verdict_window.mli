(** Per-peer sliding verdict windows (paper Section 3.4).

    A judges each of B's dropped messages and keeps the last [w] verdicts,
    archiving the tomographic evidence behind each. When at least [m] of
    the windowed verdicts are guilty, A escalates to a formal accusation. *)

type 'evidence entry = {
  verdict : Blame.verdict;
  blame : float;
  drop_time : float;
  evidence : 'evidence;
}

type 'evidence t

val create : window_size:int -> 'evidence t
val record : 'evidence t -> 'evidence entry -> unit
val length : 'evidence t -> int
val guilty_count : 'evidence t -> int
val entries : 'evidence t -> 'evidence entry list
(** Oldest first. *)

val guilty_entries : 'evidence t -> 'evidence entry list

val should_accuse : 'evidence t -> m:int -> bool
(** At least [m] guilty verdicts currently in the window. *)
