(** Generic signed envelope: a payload plus the signer's key and signature.
    Tomographic snapshots, forwarding commitments, verdicts and accusations
    are all shipped inside these. *)

type 'a t = private { payload : 'a; signer : Pki.public_key; signature : Pki.signature }

val make :
  serialize:('a -> string list) -> signer:Pki.public_key -> secret:Pki.secret_key -> 'a -> 'a t
(** Sign the domain tag followed by the payload's serialization, given as
    pieces that are hashed in order and never concatenated. *)

val check : serialize:('a -> string list) -> Pki.t -> 'a t -> bool
(** Re-serialize the payload and verify the signature against the embedded
    signer key. *)

val forge : signer:Pki.public_key -> fake_signature:Pki.signature -> 'a -> 'a t
(** Build an envelope with an arbitrary (invalid) signature — used by the
    test suite and attack scenarios to model adversaries attempting
    spoofing. *)

val payload : 'a t -> 'a
val signer : 'a t -> Pki.public_key
