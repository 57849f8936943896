(* SHA-256 and HMAC-SHA256 as they were before the incremental path, kept as
   a reference for [Sha256] and [Hmac]: the digest copies the whole message
   into a padded buffer and reads it back a byte at a time; the MAC rebuilds
   the key's padded blocks on every call and hashes each concatenated with
   its message; hex is one [Printf.sprintf "%02x"] per byte. The new path
   must give the same bytes for every message, key and split. *)

let mask = 0xFFFFFFFF

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

let digest message =
  let h = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |] in
  let length = String.length message in
  (* Padding: 0x80, zeros to 56 mod 64, then the bit length as 64-bit BE. *)
  let padded_length =
    let base = length + 9 in
    ((base + 63) / 64) * 64
  in
  let padded = Bytes.make padded_length '\000' in
  Bytes.blit_string message 0 padded 0 length;
  Bytes.set padded length '\x80';
  let bit_length = Int64.of_int (8 * length) in
  for i = 0 to 7 do
    let byte = Int64.to_int (Int64.logand (Int64.shift_right_logical bit_length (8 * (7 - i))) 0xFFL) in
    Bytes.set padded (padded_length - 8 + i) (Char.chr byte)
  done;
  let w = Array.make 64 0 in
  for chunk = 0 to (padded_length / 64) - 1 do
    let base = chunk * 64 in
    for t = 0 to 15 do
      let byte i = Char.code (Bytes.get padded (base + (4 * t) + i)) in
      w.(t) <- (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3
    done;
    for t = 16 to 63 do
      let s0 = rotr w.(t - 15) 7 lxor rotr w.(t - 15) 18 lxor (w.(t - 15) lsr 3) in
      let s1 = rotr w.(t - 2) 17 lxor rotr w.(t - 2) 19 lxor (w.(t - 2) lsr 10) in
      w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land mask
    done;
    let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
    let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
    for t = 0 to 63 do
      let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
      let ch = (!e land !f) lxor (lnot !e land !g land mask) in
      let temp1 = (!hh + s1 + ch + k.(t) + w.(t)) land mask in
      let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
      let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
      let temp2 = (s0 + maj) land mask in
      hh := !g;
      g := !f;
      f := !e;
      e := (!d + temp1) land mask;
      d := !c;
      c := !b;
      b := !a;
      a := (temp1 + temp2) land mask
    done;
    h.(0) <- (h.(0) + !a) land mask;
    h.(1) <- (h.(1) + !b) land mask;
    h.(2) <- (h.(2) + !c) land mask;
    h.(3) <- (h.(3) + !d) land mask;
    h.(4) <- (h.(4) + !e) land mask;
    h.(5) <- (h.(5) + !f) land mask;
    h.(6) <- (h.(6) + !g) land mask;
    h.(7) <- (h.(7) + !hh) land mask
  done;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set out (4 * i) (Char.chr ((h.(i) lsr 24) land 0xFF));
    Bytes.set out ((4 * i) + 1) (Char.chr ((h.(i) lsr 16) land 0xFF));
    Bytes.set out ((4 * i) + 2) (Char.chr ((h.(i) lsr 8) land 0xFF));
    Bytes.set out ((4 * i) + 3) (Char.chr (h.(i) land 0xFF))
  done;
  Bytes.to_string out

let hex raw =
  let buffer = Buffer.create 64 in
  String.iter (fun c -> Buffer.add_string buffer (Printf.sprintf "%02x" (Char.code c))) raw;
  Buffer.contents buffer

let block_size = 64

let hmac_sha256 ~key message =
  let key = if String.length key > block_size then digest key else key in
  let padded = Bytes.make block_size '\000' in
  Bytes.blit_string key 0 padded 0 (String.length key);
  let xor_with byte =
    String.init block_size (fun i -> Char.chr (Char.code (Bytes.get padded i) lxor byte))
  in
  let inner = digest (xor_with 0x36 ^ message) in
  digest (xor_with 0x5C ^ inner)

let hmac_sha256_hex ~key message = hex (hmac_sha256 ~key message)
