module Prng = Concilium_util.Prng

type public_key = string
type secret_key = { key_secret : string }
type signature = string

type certificate = {
  subject_address : string;
  subject_node_id : string;
  subject_key : public_key;
  authority_signature : signature;
}

type t = {
  rng : Prng.t;
  registry : (public_key, string) Hashtbl.t; (* public key -> signing secret *)
  authority_public : public_key;
  authority_secret : secret_key;
}

let random_token rng =
  let raw =
    String.concat ""
      (List.init 4 (fun _ -> Printf.sprintf "%016Lx" (Prng.int64 rng)))
  in
  Sha256.hex_digest raw

let generate_into registry rng =
  let secret = random_token rng in
  let public = Sha256.hex_digest secret in
  Hashtbl.replace registry public secret;
  (public, { key_secret = secret })

let create ~seed =
  let rng = Prng.of_seed seed in
  let registry = Hashtbl.create 1024 in
  let authority_public, authority_secret = generate_into registry rng in
  { rng; registry; authority_public; authority_secret }

let sign secret message = Hmac.sha256_hex ~key:secret.key_secret message

let verify t public message signature =
  match Hashtbl.find_opt t.registry public with
  | None -> false
  | Some secret -> String.equal (Hmac.sha256_hex ~key:secret message) signature

let certificate_payload ~address ~node_id ~key =
  "cert|" ^ address ^ "|" ^ node_id ^ "|" ^ key

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
