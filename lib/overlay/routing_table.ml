module Sorted = Concilium_util.Sorted

type entry = { peer : Id.t; node : int }
type t = entry option array

let rows = Id.digits
let columns = Id.base

let slot_index ~row ~col =
  if row < 0 || row >= rows then invalid_arg "Routing_table: row out of range";
  if col < 0 || col >= columns then invalid_arg "Routing_table: column out of range";
  (row * columns) + col

let get t ~row ~col = t.(slot_index ~row ~col)

let compare_fst (a, _) (b, _) = Id.compare a b

(* Candidates for slot (row, col): identifiers in the half-open range
   [prefix(row digits of owner) . col . 00..0, same prefix . col . ff..f].
   Located with two binary searches over the sorted id array. *)
let candidate_range ~owner_id ~row ~col sorted =
  let point = Id.with_digit owner_id row col in
  let lo_bound =
    let rec fill id i = if i >= Id.digits then id else fill (Id.with_digit id i 0) (i + 1) in
    fill point (row + 1)
  in
  let hi_bound =
    let rec fill id i =
      if i >= Id.digits then id else fill (Id.with_digit id i (Id.base - 1)) (i + 1)
    in
    fill point (row + 1)
  in
  let lo = Sorted.lower_bound compare_fst sorted (lo_bound, 0) in
  let hi = Sorted.upper_bound compare_fst sorted (hi_bound, 0) in
  (point, lo, hi)

let closest_in_range ~point ~owner_id sorted lo hi =
  (* The range is sorted, so the minimizer of ring distance to [point] is
     adjacent to point's insertion position (or wraps within the range). *)
  let best = ref None in
  let consider index =
    if index >= lo && index < hi then begin
      let id, node = sorted.(index) in
      if not (Id.equal id owner_id) then begin
        let d = Id.ring_distance id point in
        match !best with
        | Some (_, best_d) when Id.compare d best_d >= 0 -> ()
        | _ -> best := Some ({ peer = id; node }, d)
      end
    end
  in
  let insertion = Sorted.lower_bound compare_fst sorted (point, 0) in
  (* Check a small neighborhood around the insertion point; the owner can
     occupy at most one slot in it, so two on each side suffice. *)
  for index = insertion - 2 to insertion + 2 do
    consider index
  done;
  (* Edges of the range guard against all-neighborhood-out-of-range cases. *)
  consider lo;
  consider (hi - 1);
  Option.map fst !best

(* Slot (i, j) is filled iff some *other* node carries the required
   (i+1)-digit prefix — including j = the owner's own digit, so that
   occupancy follows the paper's Equation 1 with N-1 candidate draws for
   every one of the l*v slots. *)
let build_secure ~owner:owner_id ~sorted =
  let slots = Array.make (rows * columns) None in
  for row = 0 to rows - 1 do
    for col = 0 to columns - 1 do
      let point, lo, hi = candidate_range ~owner_id ~row ~col sorted in
      if hi > lo then
        slots.(slot_index ~row ~col) <- closest_in_range ~point ~owner_id sorted lo hi
    done
  done;
  slots

let occupancy t =
  Array.fold_left (fun acc slot -> match slot with Some _ -> acc + 1 | None -> acc) 0 t

let iter f t =
  for row = 0 to rows - 1 do
    for col = 0 to columns - 1 do
      f ~row ~col (get t ~row ~col)
    done
  done
