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
  target : target;
  pushed : bool;  (** whether the judge pushes this verdict upstream *)
}
(** What one hop of a route holds against its successor. An episode's
    judgments are an array indexed by route position: position [i] judges
    position [i + 1], and [None] means that hop judged nothing. *)

type resolution = {
  final : target option;  (** [None] only when no position holds a judgment *)
  exonerated : int list;  (** suspects cleared by downstream revisions, upstream first *)
  judgments_used : int;
}

val anchor : judgment option array -> int option
(** The first position holding a judgment, where the walk starts. It is
    position 0, the sender, unless the sender crashed or abstained: then
    the most upstream steward that judged anchors the walk (steward
    failover), so surviving stewards still deliver a diagnosis. *)

val resolve : judgment option array -> resolution
(** Walk the revision chain from the {!anchor}: while position [i]'s
    judgment blames its next hop and position [i + 1]'s judgment is
    pushed, that hop is exonerated and the walk adopts its judgment. *)
