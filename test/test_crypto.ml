module Sha256 = Concilium_crypto.Sha256
module Hmac = Concilium_crypto.Hmac
module Hex = Concilium_crypto.Hex
module Pki = Concilium_crypto.Pki
module Signed = Concilium_crypto.Signed

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ---------- SHA-256: FIPS 180-4 / NIST test vectors ---------- *)

let test_sha256_vectors () =
  let cases =
    [
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
      ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
        "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
    ]
  in
  List.iter
    (fun (input, expected) -> check Alcotest.string input expected (Sha256.hex_digest input))
    cases

let test_sha256_million_a () =
  check Alcotest.string "million 'a'"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex_digest (String.make 1_000_000 'a'))

(* Every length from 0 to 300 bytes: the tail is padded in one block below
   56 bytes and in two from 56 to 63, on either side of one and two whole
   blocks (55/56/63/64 and 119/120/127/128). *)
let test_sha256_length_boundaries () =
  for n = 0 to 300 do
    let message = String.init n (fun i -> Char.chr (((i * 7) + n) land 0xFF)) in
    check Alcotest.string (Printf.sprintf "%d bytes" n)
      (Crypto_oracle.hex (Crypto_oracle.digest message))
      (Sha256.hex_digest message)
  done

let message_gen = QCheck.Gen.(string_size ~gen:char (int_range 0 300))

(* A message and the cut points that split it into pieces, some empty. *)
let split_message =
  QCheck.make
    ~print:(fun (message, cuts) ->
      Printf.sprintf "%S cut at [%s]" message (String.concat ";" (List.map string_of_int cuts)))
    QCheck.Gen.(
      message_gen >>= fun message ->
      list_size (int_range 0 6) (int_range 0 (String.length message)) >|= fun cuts ->
      (message, List.sort Int.compare cuts))

let pieces (message, cuts) =
  let rec from lo = function
    | [] -> [ String.sub message lo (String.length message - lo) ]
    | cut :: rest -> String.sub message lo (cut - lo) :: from cut rest
  in
  from 0 cuts

let prop_sha256_oracle =
  QCheck.Test.make ~name:"digest equals the oracle" ~count:500
    (QCheck.make ~print:(Printf.sprintf "%S") message_gen)
    (fun message -> String.equal (Sha256.digest message) (Crypto_oracle.digest message))

let prop_sha256_pieces =
  QCheck.Test.make ~name:"pieces digest as one string" ~count:500 split_message
    (fun ((message, _) as split) ->
      let ctx = Sha256.start Sha256.initial in
      List.iter (Sha256.feed ctx) (pieces split);
      String.equal (Sha256.finish ctx) (Sha256.digest message))

(* ---------- HMAC-SHA256: RFC 4231 vectors ---------- *)

(* Each vector on the keyed path and on the oracle the properties below
   compare it with. *)
let test_hmac_rfc4231 () =
  let vector name ~key message expected =
    check Alcotest.string name expected (Hex.encode (Hmac.mac (Hmac.key key) [ message ]));
    check Alcotest.string (name ^ ", oracle") expected (Crypto_oracle.hmac_sha256_hex ~key message)
  in
  vector "case 1" ~key:(String.make 20 '\x0b') "Hi There"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7";
  vector "case 2" ~key:"Jefe" "what do ya want for nothing?"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843";
  vector "case 6 (key > block)" ~key:(String.make 131 '\xaa')
    "Test Using Larger Than Block-Size Key - Hash Key First"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"

(* Keys of 0-200 bytes cross the 64-byte block, above which the key is
   hashed first. *)
let prop_hmac_oracle =
  QCheck.Test.make ~name:"MAC equals the oracle" ~count:300
    (QCheck.pair
       (QCheck.make ~print:(Printf.sprintf "%S") QCheck.Gen.(string_size ~gen:char (int_range 0 200)))
       split_message)
    (fun (key, ((message, _) as split)) ->
      String.equal (Hmac.mac (Hmac.key key) (pieces split)) (Crypto_oracle.hmac_sha256 ~key message))

let prop_hex_oracle =
  QCheck.Test.make ~name:"table hex equals sprintf" ~count:200
    (QCheck.make ~print:(Printf.sprintf "%S") message_gen)
    (fun raw -> String.equal (Hex.encode raw) (Crypto_oracle.hex raw))

(* ---------- PKI ---------- *)

let test_pki_sign_verify () =
  let pki = Pki.create ~seed:99L in
  let cert, secret = Pki.issue pki ~address:"10.0.0.1" ~node_id:"abc" in
  let signature = Pki.sign secret [ "hello" ] in
  check Alcotest.bool "verifies" true (Pki.verify pki cert.Pki.subject_key [ "hello" ] signature);
  check Alcotest.bool "pieces are their concatenation" true
    (Pki.verify pki cert.Pki.subject_key [ "he"; ""; "llo" ] signature);
  check Alcotest.bool "wrong message" false
    (Pki.verify pki cert.Pki.subject_key [ "hellp" ] signature);
  let other_cert, _ = Pki.issue pki ~address:"10.0.0.2" ~node_id:"def" in
  check Alcotest.bool "wrong key" false
    (Pki.verify pki other_cert.Pki.subject_key [ "hello" ] signature)

let test_pki_unknown_key () =
  let pki = Pki.create ~seed:99L in
  let _, secret = Pki.issue pki ~address:"10.0.0.1" ~node_id:"abc" in
  let signature = Pki.sign secret [ "hello" ] in
  check Alcotest.bool "unknown key rejected" false
    (Pki.verify pki (Pki.public_key_of_string "deadbeef") [ "hello" ] signature)

let test_pki_certificates () =
  let pki = Pki.create ~seed:5L in
  let cert, _ = Pki.issue pki ~address:"10.1.2.3" ~node_id:"node-7" in
  check Alcotest.bool "certificate verifies" true (Pki.verify_certificate pki cert);
  let tampered = { cert with Pki.subject_address = "10.9.9.9" } in
  check Alcotest.bool "tampered rejected" false (Pki.verify_certificate pki tampered)

(* ---------- Signed envelopes ---------- *)

let serialize s = [ s ]

let test_signed_roundtrip () =
  let pki = Pki.create ~seed:5L in
  let cert, secret = Pki.issue pki ~address:"a" ~node_id:"n" in
  let envelope = Signed.make ~serialize ~signer:cert.Pki.subject_key ~secret "payload" in
  check Alcotest.bool "checks" true (Signed.check ~serialize pki envelope);
  check Alcotest.string "payload" "payload" (Signed.payload envelope)

let test_signed_forgery_rejected () =
  let pki = Pki.create ~seed:5L in
  let cert, _ = Pki.issue pki ~address:"a" ~node_id:"n" in
  let forged =
    Signed.forge ~signer:cert.Pki.subject_key
      ~fake_signature:(Pki.signature_of_string "0000") "payload"
  in
  check Alcotest.bool "forged rejected" false (Signed.check ~serialize pki forged)

let prop_signed_any_payload =
  QCheck.Test.make ~name:"signed envelopes verify for arbitrary payloads" ~count:100
    QCheck.(string_of_size Gen.small_nat)
    (fun payload ->
      let pki = Pki.create ~seed:17L in
      let cert, secret = Pki.issue pki ~address:"a" ~node_id:"n" in
      let envelope = Signed.make ~serialize ~signer:cert.Pki.subject_key ~secret payload in
      Signed.check ~serialize pki envelope)

let suites =
  [
    ( "crypto.sha256",
      [
        Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors;
        Alcotest.test_case "million a" `Slow test_sha256_million_a;
        Alcotest.test_case "padding boundaries" `Quick test_sha256_length_boundaries;
        qtest prop_sha256_oracle;
        qtest prop_sha256_pieces;
      ] );
    ( "crypto.hmac",
      [ Alcotest.test_case "RFC 4231 vectors" `Quick test_hmac_rfc4231; qtest prop_hmac_oracle ] );
    ("crypto.hex", [ qtest prop_hex_oracle ]);
    ( "crypto.pki",
      [
        Alcotest.test_case "sign/verify" `Quick test_pki_sign_verify;
        Alcotest.test_case "unknown key" `Quick test_pki_unknown_key;
        Alcotest.test_case "certificates" `Quick test_pki_certificates;
      ] );
    ( "crypto.signed",
      [
        Alcotest.test_case "roundtrip" `Quick test_signed_roundtrip;
        Alcotest.test_case "forgery rejected" `Quick test_signed_forgery_rejected;
        qtest prop_signed_any_payload;
      ] );
  ]
