(** Signed tomographic snapshots (paper Section 3.2).

    After probing its tree, H advertises to its routing peers: a timestamped
    copy of its routing state (one entry per peer, each carrying the peer's
    signed freshness stamp) and a per-path loss summary (a few bits per
    path). The whole snapshot is signed by H, which both prevents spoofing
    and stops H from later disavowing the probe results it published. The
    protocol meters its wire size with the core bandwidth model. *)

module Id = Concilium_overlay.Id
module Freshness = Concilium_overlay.Freshness
module Signed = Concilium_crypto.Signed
module Pki = Concilium_crypto.Pki

type path_summary = {
  peer : Id.t;
  loss_level : int;
      (** quantised end-to-end loss, part of the signed bytes; the runtime
          advertises level 0 *)
  freshness : Freshness.stamp;
}

type body = {
  origin : Id.t;
  issued_at : float;
  summaries : path_summary list;
}

type t = body Signed.t

val make :
  origin:Id.t ->
  secret:Pki.secret_key ->
  public:Pki.public_key ->
  now:float ->
  summaries:path_summary list ->
  t

val verify : Pki.t -> t -> bool
(** Check the snapshot's own signature (freshness stamps are validated
    separately, entry by entry, during routing-state validation). *)

val serialize_body : body -> string
