(** Fault rebuttals (paper Sections 3 and 3.5).

    Every Concilium accusation is provisional: the accused may prove that
    the message was actually dropped further downstream. A node therefore
    archives the onward verdicts it issued (as stewards do for every
    message they forward). When another host is about to sanction it, the
    node is shown the accusation and answers with the archived verdict for
    the same drop — a *rebuttal*. The adjudicator independently verifies
    both statements; a verified rebuttal shifts the blame to the rebuttal's
    own accused, exonerating the original target. *)

module Id = Concilium_overlay.Id
module Pki = Concilium_crypto.Pki

type archive
(** A node's archive of the onward verdicts it issued, indexed by drop
    time. *)

val create_archive : unit -> archive
val archive_size : archive -> int

val record : archive -> Accusation.t -> unit
(** Store an onward verdict (a signed accusation this node issued against
    its own next hop) for later defense. *)

val defend : archive -> against:Accusation.t -> Accusation.t option
(** The accused searches its archive for an onward verdict covering the
    same drop: issued by the accusation's accused, within the blame window
    around the accusation's drop time. *)

type outcome =
  | Accusation_stands  (** no valid rebuttal: the accused keeps the blame *)
  | Blame_shifted of Id.t  (** rebuttal verified: this node is the true culprit *)
  | Accusation_invalid of Accusation.rejection
      (** the original accusation itself fails verification *)

val adjudicate : Pki.t -> accusation:Accusation.t -> rebuttal:Accusation.t option -> outcome
(** What a third party concludes. A rebuttal counts only if (i) it
    verifies, (ii) its accuser is the accusation's accused, and (iii) its
    drop time falls within the accusation's probe window. *)

val pp_outcome : Format.formatter -> outcome -> unit
