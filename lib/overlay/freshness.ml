module Signed = Concilium_crypto.Signed
module Pki = Concilium_crypto.Pki

type claim = { holder : Id.t; issued_at : float }

let serialize claim =
  Printf.sprintf "freshness|%s|%.6f" (Id.to_hex claim.holder) claim.issued_at

let pieces claim = [ serialize claim ]

type stamp = claim Signed.t

let issue ~holder ~secret ~public ~now =
  Signed.make ~serialize:pieces ~signer:public ~secret { holder; issued_at = now }

let verify pki stamp = Signed.check ~serialize:pieces pki stamp

let is_fresh ~now ~max_age stamp =
  let claim = Signed.payload stamp in
  claim.issued_at <= now && now -. claim.issued_at <= max_age

let validate pki ~now ~max_age ~expected_holder stamp =
  let claim = Signed.payload stamp in
  Id.equal claim.holder expected_holder && verify pki stamp && is_fresh ~now ~max_age stamp
