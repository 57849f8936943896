module Id = Concilium_overlay.Id
module Freshness = Concilium_overlay.Freshness
module Signed = Concilium_crypto.Signed
module Pki = Concilium_crypto.Pki

type path_summary = {
  peer : Id.t;
  loss_level : int;
  freshness : Freshness.stamp;
}

type body = { origin : Id.t; issued_at : float; summaries : path_summary list }
type t = body Signed.t

let serialize_summary s =
  Printf.sprintf "%s:%d:%s" (Id.to_hex s.peer) s.loss_level
    (Freshness.serialize (Signed.payload s.freshness))

let serialize_body body =
  Printf.sprintf "snapshot|%s|%.6f|%s" (Id.to_hex body.origin) body.issued_at
    (String.concat ";" (List.map serialize_summary body.summaries))

let pieces body = [ serialize_body body ]

let make ~origin ~secret ~public ~now ~summaries =
  Signed.make ~serialize:pieces ~signer:public ~secret { origin; issued_at = now; summaries }

let verify pki t = Signed.check ~serialize:pieces pki t
