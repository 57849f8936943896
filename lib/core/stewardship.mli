(** Recursive message stewardship and accusation revision (paper
    Section 3.5).

    Every hop along an overlay route treats a forwarded message as its own:
    it awaits the destination's acknowledgment and, when none arrives,
    judges its next hop. A missing ack therefore yields a *chain* of
    judgments. Revision walks the chain downstream from the sender: each
    judge's verdict is replaced by the verdict its suspect pushes upstream.
    Blame settles on the first party that cannot shift it:

    - a hop whose suspect pushed no verdict (the suspect dropped the
      message, or refuses to incriminate anyone);
    - a hop that withheld its own verdict (refusing to push is
      self-incriminating — upstream never amends past it);
    - the network, when the last verdict in the walkable chain found a bad
      link rather than a bad forwarder;
    - no one, when the chain ends on a hop that availability probing shows
      offline ({!Offline}) — absence is not misbehaviour. *)

type target =
  | Next_hop of int  (** the judge blames this overlay node *)
  | Network  (** the judge's tomography shows a bad link: blame the IP network *)
  | Offline of int
      (** the judge's availability probes show this hop offline (churned
          out or crashed): nobody misbehaved, route around it. Terminates
          the revision chain — an absent node can push nothing upstream —
          and never charges a verdict window. *)

type judgment = {
  judge : int;
  target : target;
  blame : float;  (** Equation 2 value backing the verdict *)
  pushed : bool;  (** whether the judge pushes this verdict upstream *)
}

type resolution = {
  final : target option;
      (** [None] only when the first judge issued no judgment at all *)
  exonerated : int list;  (** suspects cleared by downstream revisions, upstream first *)
  judgments_used : int;
}

val resolve : first_judge:int -> judgment_of:(int -> judgment option) -> resolution
(** Walk the revision chain starting from the original sender's judgment.
    [judgment_of] returns a node's (pushed or retrievable) verdict for this
    message, if it issued one. Cycle-safe. *)

