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

val expire : 'evidence t -> before:float -> unit
(** Drop every entry whose [drop_time] is strictly below the horizon,
    preserving the order of the survivors. The boundary is inclusive-keep:
    an entry with [drop_time = before] is retained — a caller computing the
    horizon as [now -. ttl] keeps a verdict that is exactly [ttl] old, and
    a judge re-checking at the same instant it recorded sees the verdict
    still counted. Verdicts backed by evidence
    strictly older than the horizon must not keep counting towards an
    accusation. Runs in one pass over the window; the buffer is rebuilt
    only when at least one entry actually expires. *)

val guilty_entries : 'evidence t -> 'evidence entry list

val should_accuse : 'evidence t -> m:int -> bool
(** At least [m] guilty verdicts currently in the window. *)
