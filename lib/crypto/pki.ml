module Prng = Concilium_util.Prng

type public_key = string
type secret_key = Hmac.key
type signature = string

type certificate = {
  subject_address : string;
  subject_node_id : string;
  subject_key : public_key;
  authority_signature : signature;
}

type t = {
  rng : Prng.t;
  registry : (public_key, Hmac.key) Hashtbl.t; (* public key -> signing key *)
  authority_public : public_key;
  authority_secret : secret_key;
}

(* Four PRNG draws rendered as 64 hex digits, then hashed. *)
let random_token rng =
  let raw = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_be raw (8 * i) (Prng.int64 rng)
  done;
  Sha256.hex_digest (Hex.encode (Bytes.to_string raw))

let generate_into registry rng =
  let secret = random_token rng in
  let public = Sha256.hex_digest secret in
  let key = Hmac.key secret in
  Hashtbl.replace registry public key;
  (public, key)

let create ~seed =
  let rng = Prng.of_seed seed in
  let registry = Hashtbl.create 1024 in
  let authority_public, authority_secret = generate_into registry rng in
  { rng; registry; authority_public; authority_secret }

let sign key pieces = Hex.encode (Hmac.mac key pieces)

let verify t public pieces signature =
  match Hashtbl.find_opt t.registry public with
  | None -> false
  | Some key -> String.equal (sign key pieces) signature

let certificate_payload ~address ~node_id ~key = [ "cert|"; address; "|"; node_id; "|"; key ]

let issue t ~address ~node_id =
  let public, secret = generate_into t.registry t.rng in
  let payload = certificate_payload ~address ~node_id ~key:public in
  let authority_signature = sign t.authority_secret payload in
  ( { subject_address = address; subject_node_id = node_id; subject_key = public; authority_signature },
    secret )

let verify_certificate t certificate =
  let payload =
    certificate_payload ~address:certificate.subject_address
      ~node_id:certificate.subject_node_id ~key:certificate.subject_key
  in
  verify t t.authority_public payload certificate.authority_signature

let public_key_to_string pk = pk
let public_key_of_string s = s
let signature_to_string s = s
let signature_of_string s = s
