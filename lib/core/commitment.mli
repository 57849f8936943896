(** Forwarding commitments (paper Section 3.6).

    Before A can hold B accountable for a message, B must have signed a
    statement agreeing to forward it: timestamp, A, B, and the ultimate
    destination Z. Accusations lacking a matching commitment are rejected,
    so A cannot frame B for messages it never sent. Commitments batch and
    piggyback on availability-probe responses; here they are issued
    per-message. *)

module Id = Concilium_overlay.Id
module Signed = Concilium_crypto.Signed
module Pki = Concilium_crypto.Pki

type body = {
  forwarder : Id.t;  (** B: the node committing to forward *)
  sender : Id.t;  (** A: the node it received the message from *)
  destination : Id.t;  (** Z: the message's final destination *)
  message_id : string;  (** hash identifying the covered message *)
  issued_at : float;
}

type t = body Signed.t

val issue :
  forwarder:Id.t ->
  secret:Pki.secret_key ->
  public:Pki.public_key ->
  sender:Id.t ->
  destination:Id.t ->
  message_id:string ->
  now:float ->
  t

val verify : Pki.t -> t -> bool

val covers :
  t -> forwarder:Id.t -> sender:Id.t -> destination:Id.t -> message_id:string -> bool
(** Field-wise match (signature checked separately by {!verify}). *)

val serialize_body : body -> string
