module Prng = Concilium_util.Prng
module Hashing = Concilium_util.Hashing
module Poisson_binomial = Concilium_stats.Poisson_binomial

(* Chord over a {!Ring} universe without per-node stored state.

   A node's successor list is "the next [successor_count] alive positions
   clockwise" and its finger k is "the first alive node at or after
   id + 2^k"; both are answered from the sorted universe plus the alive
   bitset, so nothing needs repair on churn. Forwarding is the
   stored-table rule: hop to the closest preceding node among the fingers
   and the successors. *)

let finger_count = 128
let successor_count = 8

(* First alive node at or after [key] clockwise — the key's owner. *)
let owner_of_key ring key = Ring.next_alive_cyclic_from ring (Ring.insertion_point ring key)

(* One hop towards [dest], given its [owner] and [before], the last alive
   node strictly before [dest] (the owner's alive predecessor). Both depend
   only on the key, so [route] computes them once.

   Unless the first successor owns the key, every finger and successor
   strictly before [dest] lies in (here, before]. The farthest such
   finger is the one at level floor(log2 d(here, before)): its target is
   at or before [before], and the next level's target is past it. The
   farthest such successor is [before] itself when it is on the list, else
   the list's last entry. *)
let step ring ~here ~dest ~owner ~before =
  let here_id = Ring.id ring here in
  let first = Ring.next_alive_cyclic ring here in
  if Id.equal here_id dest || first < 0 then None
  else if first = owner then Some first
  else begin
    let level = Id.floor_log2 (Id.clockwise_distance here_id (Ring.id ring before)) in
    let finger = owner_of_key ring (Id.add_power_of_two here_id level) in
    let listed = min successor_count (Ring.alive_count ring - 1) in
    let rec farthest_successor s k =
      if s = before || k = listed then s
      else farthest_successor (Ring.next_alive_cyclic ring s) (k + 1)
    in
    let successor = farthest_successor first 1 in
    (* Positions ascend with ids, so clockwise order from [here] is the
       cyclic order of positions. *)
    let ahead p = (p - here + Ring.size ring) mod Ring.size ring in
    Some (if ahead successor > ahead finger then successor else finger)
  end

let next_hop ring ~here ~dest =
  let owner = owner_of_key ring dest in
  step ring ~here ~dest ~owner ~before:(Ring.prev_alive_cyclic ring owner)

(* Each hop at least halves the distance to [before], so a route on a
   well-formed ring takes at most [finger_count] + 1 hops. *)
let hop_limit = 2 * finger_count

let route ring ~src ~dest =
  let owner = owner_of_key ring dest in
  let before = Ring.prev_alive_cyclic ring owner in
  let rec forward here hops digest =
    if here = owner || hops = hop_limit then (here, hops, digest)
    else begin
      match step ring ~here ~dest ~owner ~before with
      | None -> (here, hops, digest)
      | Some next -> forward next (hops + 1) (Hashing.fnv1a_int digest (Int64.of_int next))
    end
  in
  forward src 0 (Hashing.fnv1a_int (Hashing.fnv1a "chord-route") (Int64.of_int src))

let interval_occupancy ring here =
  let id = Ring.id ring here in
  let occupied = ref 0 in
  for k = 0 to finger_count - 1 do
    let target = Id.add_power_of_two id k in
    let upper = if k = finger_count - 1 then id else Id.add_power_of_two id (k + 1) in
    let finger = owner_of_key ring target in
    if
      finger >= 0 && finger <> here
      && Id.in_clockwise_interval (Ring.id ring finger) ~lo:target ~hi:upper
    then incr occupied
  done;
  !occupied

let mean_route_length ring ~sources ~trials ~rng =
  let total = ref 0 in
  for _ = 1 to trials do
    let src = sources.(Prng.int rng (Array.length sources)) in
    let dest = Id.random rng in
    let _, hops, _ = route ring ~src ~dest in
    total := !total + hops
  done;
  float_of_int !total /. float_of_int trials

module Model = struct
  let interval_probability ~n ~index =
    if n < 1 then invalid_arg "Chord.Model.interval_probability: n must be >= 1";
    if index < 0 || index >= finger_count then
      invalid_arg "Chord.Model.interval_probability: index out of range";
    (* Interval k spans 2^k of the 2^128 ring: a uniformly random other node
       lands in it with probability 2^(k-128). *)
    let p_interval = 2. ** float_of_int (index - finger_count) in
    -.Float.expm1 (float_of_int (n - 1) *. Float.log1p (-.p_interval))

  let occupancy_model ~n =
    Poisson_binomial.of_probabilities
      (Array.init finger_count (fun index -> interval_probability ~n ~index))

  let expected_occupancy ~n = (occupancy_model ~n).Poisson_binomial.mu_phi

  let monte_carlo_occupancy ~rng ~n ~trials =
    Array.init trials (fun _ ->
        let ids = Array.init n (fun _ -> Id.random rng) in
        let ring = Ring.of_ids ids in
        (* A member's insertion point is its position. *)
        let sample = Ring.insertion_point ring ids.(Prng.int rng n) in
        float_of_int (interval_occupancy ring sample) /. float_of_int finger_count)
end
