module Prng = Concilium_util.Prng

(* Representation: 16-byte big-endian string; each byte holds two hex
   digits. Immutability of [string] makes identifiers safely shareable. *)
type t = string

let bytes_len = 16
let digits = 32
let base = 16
let zero = String.make bytes_len '\000'

let random rng =
  String.init bytes_len (fun _ -> Char.chr (Prng.int rng 256))

let hex_value c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Id.of_hex: invalid hex character"

let of_hex s =
  if String.length s <> digits then invalid_arg "Id.of_hex: expected 32 hex digits";
  String.init bytes_len (fun i ->
      Char.chr ((hex_value s.[2 * i] lsl 4) lor hex_value s.[(2 * i) + 1]))

let to_hex = Concilium_crypto.Hex.encode

let of_name name = String.sub (Concilium_crypto.Sha256.digest ("id|" ^ name)) 0 bytes_len

let compare = String.compare
let equal = String.equal

let digit t i =
  if i < 0 || i >= digits then invalid_arg "Id.digit: index out of range";
  let byte = Char.code t.[i / 2] in
  if i mod 2 = 0 then byte lsr 4 else byte land 0xF

let with_digit t i d =
  if i < 0 || i >= digits then invalid_arg "Id.with_digit: index out of range";
  if d < 0 || d >= base then invalid_arg "Id.with_digit: digit out of range";
  let bytes = Bytes.of_string t in
  let byte = Char.code t.[i / 2] in
  let updated = if i mod 2 = 0 then (d lsl 4) lor (byte land 0xF) else (byte land 0xF0) lor d in
  Bytes.set bytes (i / 2) (Char.chr updated);
  Bytes.to_string bytes

let shared_prefix_length a b =
  let rec loop i = if i >= digits || digit a i <> digit b i then i else loop (i + 1) in
  loop 0

(* (b - a) mod 2^128, byte-wise subtraction with borrow. *)
let clockwise_distance a b =
  let out = Bytes.create bytes_len in
  let borrow = ref 0 in
  for i = bytes_len - 1 downto 0 do
    let diff = Char.code b.[i] - Char.code a.[i] - !borrow in
    if diff < 0 then begin
      Bytes.set out i (Char.chr (diff + 256));
      borrow := 1
    end
    else begin
      Bytes.set out i (Char.chr diff);
      borrow := 0
    end
  done;
  Bytes.to_string out

let ring_distance a b =
  let forward = clockwise_distance a b in
  let backward = clockwise_distance b a in
  if String.compare forward backward <= 0 then forward else backward

let to_float t =
  let acc = ref 0. in
  String.iter (fun c -> acc := (!acc *. 256.) +. float_of_int (Char.code c)) t;
  !acc

let ring_size_float = 2. ** 128.

let succ t =
  let bytes = Bytes.of_string t in
  let rec carry i =
    if i < 0 then ()
    else begin
      let v = Char.code (Bytes.get bytes i) + 1 in
      if v = 256 then begin
        Bytes.set bytes i '\000';
        carry (i - 1)
      end
      else Bytes.set bytes i (Char.chr v)
    end
  in
  carry (bytes_len - 1);
  Bytes.to_string bytes

let add_power_of_two t k =
  if k < 0 || k >= 128 then invalid_arg "Id.add_power_of_two: exponent out of range";
  let byte_index = bytes_len - 1 - (k / 8) in
  let increment = 1 lsl (k mod 8) in
  let bytes = Bytes.of_string t in
  let rec carry i add =
    if i < 0 || add = 0 then ()
    else begin
      let v = Char.code (Bytes.get bytes i) + add in
      Bytes.set bytes i (Char.chr (v land 0xFF));
      carry (i - 1) (v lsr 8)
    end
  in
  carry byte_index increment;
  Bytes.to_string bytes

(* floor((a + b) / 2) over the plain 128-bit integers (no ring wrap): the
   129-bit sum is formed byte-wise, then shifted right one bit. Used as the
   Voronoi boundary between adjacent routing-table candidates: for x <= y
   a point p prefers x exactly when p <= midpoint x y. *)
let midpoint a b =
  let sum = Array.make (bytes_len + 1) 0 in
  let carry = ref 0 in
  for i = bytes_len - 1 downto 0 do
    let s = Char.code a.[i] + Char.code b.[i] + !carry in
    sum.(i + 1) <- s land 0xFF;
    carry := s lsr 8
  done;
  sum.(0) <- !carry;
  String.init bytes_len (fun i ->
      Char.chr (((sum.(i) land 1) lsl 7) lor (sum.(i + 1) lsr 1)))

(* compare (with_digit a index d) b without materialising the substituted
   identifier — the routing-table sweep calls this in an O(n * digits) inner
   loop, so it must not allocate. *)
let compare_substituted a ~index ~digit b =
  if index < 0 || index >= digits then invalid_arg "Id.compare_substituted: index out of range";
  if digit < 0 || digit >= base then invalid_arg "Id.compare_substituted: digit out of range";
  let byte_index = index / 2 in
  let rec loop i =
    if i >= bytes_len then 0
    else begin
      let av =
        let raw = Char.code a.[i] in
        if i <> byte_index then raw
        else if index land 1 = 0 then (digit lsl 4) lor (raw land 0xF)
        else (raw land 0xF0) lor digit
      in
      let bv = Char.code b.[i] in
      if av <> bv then Int.compare av bv else loop (i + 1)
    end
  in
  loop 0

(* Smallest and largest identifiers sharing the first [digits_shared] digits
   of [t]: the suffix digits are filled with 0 / base-1 respectively. *)
let prefix_bounds t ~digits_shared =
  if digits_shared < 0 || digits_shared > digits then
    invalid_arg "Id.prefix_bounds: prefix length out of range";
  let lo = Bytes.make bytes_len '\000' in
  let hi = Bytes.make bytes_len '\255' in
  let full = digits_shared / 2 in
  Bytes.blit_string t 0 lo 0 full;
  Bytes.blit_string t 0 hi 0 full;
  if digits_shared land 1 = 1 then begin
    let high_nibble = Char.code t.[full] land 0xF0 in
    Bytes.set lo full (Char.chr high_nibble);
    Bytes.set hi full (Char.chr (high_nibble lor 0xF))
  end;
  (Bytes.to_string lo, Bytes.to_string hi)

(* Index of the highest set bit (0..127), or -1 for zero. *)
let floor_log2 t =
  let rec find i = if i >= bytes_len then -1 else if t.[i] <> '\000' then i else find (i + 1) in
  match find 0 with
  | -1 -> -1
  | i ->
      let v = Char.code t.[i] in
      let rec top b = if v lsr b <> 0 then b else top (b - 1) in
      ((bytes_len - 1 - i) * 8) + top 7

let in_clockwise_interval x ~lo ~hi =
  if equal lo hi then false
  else begin
    let to_x = clockwise_distance lo x in
    let to_hi = clockwise_distance lo hi in
    String.compare to_x to_hi < 0
  end

let pp fmt t = Format.pp_print_string fmt (to_hex t)
