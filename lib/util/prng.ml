(* The xoshiro256++ state: four 64-bit words in 32 bytes, read and written
   unboxed by [Bytes.get_int64_ne] and [set_int64_ne], where mutable int64
   record fields box every write. Under the dev profile's -opaque nothing
   inlines across modules, so a returned int64 or float is boxed; [bool],
   [int] and [bernoulli] inline [next] and allocate nothing. *)
type t = Bytes.t

let ( +% ) = Int64.add
let ( *% ) = Int64.mul
let ( ^% ) = Int64.logxor

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* SplitMix64 expands a seed into the four state words: word i is the
   mix of the seed advanced i + 1 times by the golden gamma. *)
let golden_gamma = 0x9E3779B97F4A7C15L

let reseed t seed =
  for i = 0 to 3 do
    let z = seed +% (Int64.of_int (i + 1) *% golden_gamma) in
    let z = (z ^% Int64.shift_right_logical z 30) *% 0xBF58476D1CE4E5B9L in
    let z = (z ^% Int64.shift_right_logical z 27) *% 0x94D049BB133111EBL in
    Bytes.set_int64_ne t (8 * i) (z ^% Int64.shift_right_logical z 31)
  done

let of_seed seed =
  let t = Bytes.create 32 in
  reseed t seed;
  t

let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

let of_string_seed s =
  let h = ref fnv_offset in
  String.iter (fun c -> h := (!h ^% Int64.of_int (Char.code c)) *% fnv_prime) s;
  of_seed !h

let[@inline] next t =
  let s0 = Bytes.get_int64_ne t 0 and s1 = Bytes.get_int64_ne t 8 in
  let s2 = Bytes.get_int64_ne t 16 and s3 = Bytes.get_int64_ne t 24 in
  let result = rotl (s0 +% s3) 23 +% s0 in
  let tmp = Int64.shift_left s1 17 in
  let s2 = s2 ^% s0 and s3 = s3 ^% s1 in
  let s1 = s1 ^% s2 and s0 = s0 ^% s3 in
  Bytes.set_int64_ne t 0 s0;
  Bytes.set_int64_ne t 8 s1;
  Bytes.set_int64_ne t 16 (s2 ^% tmp);
  Bytes.set_int64_ne t 24 (rotl s3 45);
  result

let int64 t = next t

let split t = of_seed (next t)

(* Index order is guaranteed by the explicit loop (Array.init's evaluation
   order is unspecified, which matters for a side-effecting [split]). *)
let split_n t n =
  if n < 0 then invalid_arg "Prng.split_n: negative count";
  let out = Array.make n t in
  for i = 0 to n - 1 do
    out.(i) <- split t
  done;
  out

(* Reseed an existing generator in place with the stream [split] would have
   produced, so hot loops can recycle one scratch array of generators
   instead of allocating [split_n]'s fresh states on every fan-out. *)
let split_into t out = Array.iter (fun g -> reseed g (next t)) out

(* Rejection sampling over the top bits to avoid modulo bias. A toplevel
   loop rather than a local closure, so a draw allocates nothing. *)
let rec below t n =
  let raw = Int64.to_int (Int64.logand (next t) (Int64.of_int max_int)) in
  let v = raw mod n in
  if raw - v > max_int - n + 1 then below t n else v

let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  below t n

(* 53 random bits into [0,1). *)
let[@inline] uniform t = Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53

let float t x = uniform t *. x
let bool t = Int64.logand (next t) 1L = 1L
let bernoulli t p = uniform t < p

let gaussian t ~mu ~sigma =
  let rec nonzero () =
    let u = uniform t in
    if u > 0. then u else nonzero ()
  in
  let u1 = nonzero () and u2 = uniform t in
  let r = sqrt (-2. *. log u1) in
  mu +. (sigma *. r *. cos (2. *. Float.pi *. u2))

let exponential t ~rate =
  if rate <= 0. then invalid_arg "Prng.exponential: rate must be positive";
  let rec nonzero () =
    let u = uniform t in
    if u > 0. then u else nonzero ()
  in
  -.log (nonzero ()) /. rate

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int t (Array.length a))

let sample_without_replacement t k n =
  if k > n then invalid_arg "Prng.sample_without_replacement: k > n";
  if k < 0 then invalid_arg "Prng.sample_without_replacement: negative k";
  (* Partial Fisher-Yates over a lazily materialised identity permutation:
     only touched indices are stored, so cost is O(k) expected. *)
  let swapped = Hashtbl.create (2 * k) in
  let get i = match Hashtbl.find_opt swapped i with Some v -> v | None -> i in
  Array.init k (fun i ->
      let j = i + int t (n - i) in
      let vi = get i and vj = get j in
      Hashtbl.replace swapped j vi;
      Hashtbl.replace swapped i vj;
      vj)
