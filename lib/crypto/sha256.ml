(* All 32-bit words live in OCaml ints masked to 32 bits; the host int is 63
   bits wide so intermediate sums never overflow. *)

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

(* The four sigma functions of a word [x < 2^32]. Each rotation right by
   [n <= 31] reads bits [n .. n+31] of [x] doubled into the upper half, so
   a sum of rotations is one mask after the shifts. *)
let[@inline] doubled x = x lor (x lsl 32)

let[@inline] big_sigma0 x =
  let xx = doubled x in
  ((xx lsr 2) lxor (xx lsr 13) lxor (xx lsr 22)) land mask

let[@inline] big_sigma1 x =
  let xx = doubled x in
  ((xx lsr 6) lxor (xx lsr 11) lxor (xx lsr 25)) land mask

let[@inline] small_sigma0 x =
  let xx = doubled x in
  ((xx lsr 7) lxor (xx lsr 18)) land mask lxor (x lsr 3)

let[@inline] small_sigma1 x =
  let xx = doubled x in
  ((xx lsr 17) lxor (xx lsr 19)) land mask lxor (x lsr 10)

(* The chaining value after a whole number of blocks, as the 32-byte
   big-endian string of its eight words, and the bytes it has compressed.
   Strings are immutable, so a state is shared freely: every context
   copies the words out before it changes them. *)
type state = { chain : string; compressed : int }

type ctx = {
  h : int array;  (* the eight chaining words *)
  w : int array;  (* the message schedule of the block being compressed *)
  tail : Bytes.t;  (* bytes short of a whole block, then their padding *)
  mutable tail_length : int;
  mutable length : int;  (* bytes hashed, the start state's included *)
}

let words_to_string h =
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int h.(i))
  done;
  Bytes.to_string out

let initial =
  {
    chain =
      words_to_string
        [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    compressed = 0;
  }

(* A round's two sums, [temp1] over e f g h and the schedule, [temp2] over
   a b c. Sums of a few 32-bit words stay far below 2^62: the round masks
   once. *)
let[@inline] temp1 w t e f g h =
  h + big_sigma1 e + ((e land f) lxor (lnot e land g)) + k.(t) + w.(t)

let[@inline] temp2 a b c = big_sigma0 a + ((a land b) lor (c land (a lor b)))

(* Compress the block whose 16 words [w.(0..15)] holds. Eight rounds per
   iteration rename the working variables instead of shifting them: a
   round writes only its new e (over d) and its new a (over h). *)
let compress ctx =
  let h = ctx.h and w = ctx.w in
  for t = 16 to 63 do
    w.(t) <- (w.(t - 16) + small_sigma0 w.(t - 15) + w.(t - 7) + small_sigma1 w.(t - 2)) land mask
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 7 do
    let t = 8 * i in
    let t1 = temp1 w t !e !f !g !hh in
    d := (!d + t1) land mask;
    hh := (t1 + temp2 !a !b !c) land mask;
    let t1 = temp1 w (t + 1) !d !e !f !g in
    c := (!c + t1) land mask;
    g := (t1 + temp2 !hh !a !b) land mask;
    let t1 = temp1 w (t + 2) !c !d !e !f in
    b := (!b + t1) land mask;
    f := (t1 + temp2 !g !hh !a) land mask;
    let t1 = temp1 w (t + 3) !b !c !d !e in
    a := (!a + t1) land mask;
    e := (t1 + temp2 !f !g !hh) land mask;
    let t1 = temp1 w (t + 4) !a !b !c !d in
    hh := (!hh + t1) land mask;
    d := (t1 + temp2 !e !f !g) land mask;
    let t1 = temp1 w (t + 5) !hh !a !b !c in
    g := (!g + t1) land mask;
    c := (t1 + temp2 !d !e !f) land mask;
    let t1 = temp1 w (t + 6) !g !hh !a !b in
    f := (!f + t1) land mask;
    b := (t1 + temp2 !c !d !e) land mask;
    let t1 = temp1 w (t + 7) !f !g !hh !a in
    e := (!e + t1) land mask;
    a := (t1 + temp2 !b !c !d) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

(* Two loaders, one per buffer type: whole blocks are read in place from
   the caller's string, only the tail from [ctx.tail]. *)
let compress_string ctx s off =
  for t = 0 to 15 do
    ctx.w.(t) <- Int32.to_int (String.get_int32_be s (off + (4 * t))) land mask
  done;
  compress ctx

let compress_tail ctx off =
  for t = 0 to 15 do
    ctx.w.(t) <- Int32.to_int (Bytes.get_int32_be ctx.tail (off + (4 * t))) land mask
  done;
  compress ctx

let start state =
  let h = Array.make 8 0 in
  for i = 0 to 7 do
    h.(i) <- Int32.to_int (String.get_int32_be state.chain (4 * i)) land mask
  done;
  { h; w = Array.make 64 0; tail = Bytes.create 128; tail_length = 0; length = state.compressed }

let feed ctx s =
  let n = String.length s in
  ctx.length <- ctx.length + n;
  (* Top up a partial block first; then whole blocks straight from [s]. *)
  let off =
    if ctx.tail_length = 0 then 0
    else begin
      let take = min n (64 - ctx.tail_length) in
      Bytes.blit_string s 0 ctx.tail ctx.tail_length take;
      ctx.tail_length <- ctx.tail_length + take;
      if ctx.tail_length = 64 then begin
        compress_tail ctx 0;
        ctx.tail_length <- 0
      end;
      take
    end
  in
  let blocks = (n - off) / 64 in
  for block = 0 to blocks - 1 do
    compress_string ctx s (off + (64 * block))
  done;
  let rest = off + (64 * blocks) in
  Bytes.blit_string s rest ctx.tail ctx.tail_length (n - rest);
  ctx.tail_length <- ctx.tail_length + (n - rest)

(* Padding: 0x80, zeros to 56 mod 64, then the bit length as 64-bit BE,
   in the tail's one or two blocks. *)
let finish ctx =
  let used = ctx.tail_length in
  let padded = if used < 56 then 64 else 128 in
  Bytes.set ctx.tail used '\x80';
  Bytes.fill ctx.tail (used + 1) (padded - 9 - used) '\000';
  Bytes.set_int64_be ctx.tail (padded - 8) (Int64.of_int (8 * ctx.length));
  compress_tail ctx 0;
  if padded = 128 then compress_tail ctx 64;
  words_to_string ctx.h

let midstate blocks =
  if String.length blocks mod 64 <> 0 then invalid_arg "Sha256.midstate: not whole blocks";
  let ctx = start initial in
  feed ctx blocks;
  { chain = words_to_string ctx.h; compressed = ctx.length }

let digest message =
  let ctx = start initial in
  feed ctx message;
  finish ctx

let hex_digest message = Hex.encode (digest message)
