module Id = Concilium_overlay.Id
module Signed = Concilium_crypto.Signed
module Pki = Concilium_crypto.Pki

type body = {
  forwarder : Id.t;
  sender : Id.t;
  destination : Id.t;
  message_id : string;
  issued_at : float;
}

type t = body Signed.t

let serialize_body body =
  Printf.sprintf "commit|%s|%s|%s|%s|%.6f" (Id.to_hex body.forwarder) (Id.to_hex body.sender)
    (Id.to_hex body.destination) body.message_id body.issued_at

let pieces body = [ serialize_body body ]

let issue ~forwarder ~secret ~public ~sender ~destination ~message_id ~now =
  Signed.make ~serialize:pieces ~signer:public ~secret
    { forwarder; sender; destination; message_id; issued_at = now }

let verify pki t = Signed.check ~serialize:pieces pki t

let covers t ~forwarder ~sender ~destination ~message_id =
  let body = Signed.payload t in
  Id.equal body.forwarder forwarder && Id.equal body.sender sender
  && Id.equal body.destination destination
  && String.equal body.message_id message_id
