(** Formal, self-verifying fault accusations (paper Section 3.4).

    After a peer accumulates m guilty verdicts in a w-slot window, the
    judge publishes an accusation into the DHT under the accused's public
    key. The accusation carries everything a third party needs to rerun
    the fault calculation: the judged path's links, the signed per-link
    probe votes, the forwarding commitment proving the accused agreed to
    carry the message, and the blame parameters. Verification recomputes
    Equation 2 from the embedded evidence and rejects mismatches, missing
    commitments, or invalid signatures. *)

module Id = Concilium_overlay.Id
module Signed = Concilium_crypto.Signed
module Pki = Concilium_crypto.Pki

val m : int
(** The paper's m = 6 (Section 4.3): a judge accuses once m of its last w
    verdicts against a peer are guilty, so an accusation carries m pieces
    of evidence, the judged one and m - 1 supporting. [Protocol]'s
    verdict windows and {!verify} both read this one constant. *)

type vote = {
  prober : Id.t;
  prober_key : Pki.public_key;
  time : float;
  up : bool;
  vote_signature : Pki.signature;
      (** the prober's signature over this probe result, as extracted from
          its signed tomographic snapshot *)
}

val make_vote :
  prober:Id.t ->
  secret:Pki.secret_key ->
  public:Pki.public_key ->
  link:int ->
  time:float ->
  up:bool ->
  vote
(** What a peer's snapshot attests about one link at one probe time. *)

val vote_valid : Pki.t -> link:int -> vote -> bool

type link_evidence = { link : int; votes : vote list }

type evidence = {
  path_links : int array;  (** physical links of the judged next-hop path *)
  link_votes : link_evidence list;  (** votes for each probed link *)
  drop_time : float;
  commitment : Commitment.t;
}

type body = {
  accuser : Id.t;
  accused : Id.t;
  issued_at : float;
  blame : float;  (** Equation 2 value the accuser computed *)
  config : Blame.config;
  evidence : evidence;
  supporting : evidence list;
      (** the archived evidence behind the m - 1 guilty verdicts before
          the judged one in the accuser's window, oldest first: with the
          judged one, the m guilty verdicts the accusation rests on. The
          paper requires the accusation to carry "all of the signed
          tomographic data" used for its assessments. *)
}

type t = body Signed.t

val make :
  accuser:Id.t ->
  secret:Pki.secret_key ->
  public:Pki.public_key ->
  accused:Id.t ->
  config:Blame.config ->
  evidence:evidence ->
  supporting:evidence list ->
  now:float ->
  t
(** Computes the blame from the evidence (excluding the accused's own
    votes) and signs the whole statement; [supporting] evidence from
    earlier guilty verdicts travels with it ([] when this drop stands
    alone).
    @raise Invalid_argument if the blame falls below the guilt threshold —
    an accusation one's own evidence does not support must not be issued. *)

type archived
(** Evidence as a verdict window archives it: the record plus its
    serialization, computed the first time an accusation carries it and
    reused by the later ones (up to m accusations carry each piece). *)

val archive : evidence -> archived

val make_archived :
  accuser:Id.t ->
  secret:Pki.secret_key ->
  public:Pki.public_key ->
  accused:Id.t ->
  config:Blame.config ->
  evidence:archived ->
  supporting:archived list ->
  now:float ->
  t
(** {!make} over archived evidence: the signed bytes are exactly
    {!pieces}', taken from each evidence's cached serialization. Only
    signing reads the cache; {!verify} always re-serializes from the record
    fields. *)

type rejection =
  | Bad_signature
  | Bad_commitment
  | Commitment_mismatch
  | Bad_vote_signature
  | Blame_mismatch  (** recomputed blame disagrees with the claimed value *)
  | Below_threshold
  | Weak_supporting_evidence
      (** a piece of supporting evidence fails its own vote-signature or
          threshold check *)
  | Wrong_supporting_count  (** supporting evidence is not exactly m - 1 pieces *)
  | Supporting_commitment_mismatch
      (** a supporting piece's commitment does not verify or does not name
          the accused as forwarder *)
  | Repeated_message
      (** two of the m pieces share a commitment message id: they judge
          one dropped message, not m *)

val verify : Pki.t -> t -> (unit, rejection) result
(** Full third-party check, in the order listed by {!rejection}: every
    piece of supporting evidence must independently clear the guilt
    threshold under recomputation, there must be exactly m - 1 of them,
    each backed by a valid commitment of the accused, and the m pieces
    must judge m distinct dropped messages. Distinct messages are told
    apart by message id rather than drop time, since a verdict counts
    messages and two drops can share a virtual time. *)

val pieces : body -> string list
(** The signed serialization of a body, in the pieces its signature hashes
    one after another: a header, each piece of evidence's serialization and
    the separators between them. An accusation's evidence runs to hundreds
    of kilobytes, and it is never concatenated into one string. *)

val pp_rejection : Format.formatter -> rejection -> unit
