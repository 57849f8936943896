(* The list-based Pastry overlay, kept as a reference for the flat core:
   every node holds its own [Routing_table.build_secure] table and
   [Leaf_set], and messages follow the original forwarding rule — finish
   within the leaf set's span when possible, otherwise jump by prefix,
   otherwise fall back to any known peer that is strictly closer to the key
   and shares at least as long a prefix. [Pastry] must agree with it on
   every overlay with more than 2 * leaf_half nodes, for the keys
   [assert_agrees] draws. *)

module Sorted = Concilium_util.Sorted
module Bitset = Concilium_util.Bitset
module Id = Concilium_overlay.Id
module Leaf_set = Concilium_overlay.Leaf_set
module Routing_table = Concilium_overlay.Routing_table
module Pastry = Concilium_overlay.Pastry
module Prng = Concilium_util.Prng

type node = { id : Id.t; leaf_set : Leaf_set.t; table : Routing_table.t }
type t = { nodes : node array; sorted : (Id.t * int) array; leaf_half : int }

let compare_fst (a, _) (b, _) = Id.compare a b

let build ~leaf_half_size ids =
  let sorted = Array.mapi (fun index id -> (id, index)) ids in
  Array.sort compare_fst sorted;
  let sorted_ids = Array.map fst sorted in
  let nodes =
    Array.map
      (fun id ->
        {
          id;
          leaf_set = Leaf_set.build ~owner:id ~sorted_ids ~half_size:leaf_half_size;
          table = Routing_table.build_secure ~owner:id ~sorted;
        })
      ids
  in
  { nodes; sorted; leaf_half = leaf_half_size }

let node_count t = Array.length t.nodes
let leaf_set t v = t.nodes.(v).leaf_set
let occupancy t v = Routing_table.occupancy t.nodes.(v).table

(* Leaf-set rule: the key falls within the span from the farthest
   counter-clockwise member to the farthest clockwise one (measured as
   floats), and the hop goes to the member, or owner, closest to it. *)
let covers leaf_set dest =
  let owner = Leaf_set.owner leaf_set in
  let far array = if Array.length array = 0 then owner else array.(Array.length array - 1) in
  let start = far (Leaf_set.counter_clockwise leaf_set) in
  let stop = far (Leaf_set.clockwise leaf_set) in
  Id.to_float (Id.clockwise_distance start dest) <= Id.to_float (Id.clockwise_distance start stop)

let closest_member leaf_set dest =
  List.fold_left
    (fun best id ->
      let c = Id.compare (Id.ring_distance id dest) (Id.ring_distance best dest) in
      if c < 0 || (c = 0 && Id.compare id best < 0) then id else best)
    (Leaf_set.owner leaf_set)
    (Array.to_list (Leaf_set.clockwise leaf_set) @ Array.to_list (Leaf_set.counter_clockwise leaf_set))

(* Jump-table rule: row = the shared prefix length with the key, column =
   the key's next digit. *)
let table_next_hop table ~owner ~dest =
  let row = Id.shared_prefix_length owner dest in
  if row >= Routing_table.rows then None else Routing_table.get table ~row ~col:(Id.digit dest row)

let index_of_id_exn t id =
  let position = Sorted.lower_bound compare_fst t.sorted (id, 0) in
  if position < Array.length t.sorted && Id.equal (fst t.sorted.(position)) id then
    snd t.sorted.(position)
  else invalid_arg "Pastry_oracle: unknown identifier"

let numerically_closest t key =
  let n = Array.length t.sorted in
  let position = Sorted.lower_bound compare_fst t.sorted (key, 0) in
  let best = ref (-1, Id.zero) in
  let consider raw =
    let id, node_index = t.sorted.(((raw mod n) + n) mod n) in
    let d = Id.ring_distance id key in
    if fst !best < 0 || Id.compare d (snd !best) < 0 then best := (node_index, d)
  in
  consider position;
  consider (position - 1);
  consider (position + 1);
  fst !best

let next_hop t ~from ~dest =
  let here = t.nodes.(from) in
  if Id.equal here.id dest then None
  else if covers here.leaf_set dest then begin
    let closest = closest_member here.leaf_set dest in
    if Id.equal closest here.id then None else Some (index_of_id_exn t closest)
  end
  else begin
    match table_next_hop here.table ~owner:here.id ~dest with
    | Some entry -> Some entry.Routing_table.node
    | None ->
        let here_shared = Id.shared_prefix_length here.id dest in
        let here_distance = Id.ring_distance here.id dest in
        let best = ref None in
        let consider id =
          if (not (Id.equal id here.id))
             && Id.shared_prefix_length id dest >= here_shared
             && Id.compare (Id.ring_distance id dest) here_distance < 0
          then begin
            let d = Id.ring_distance id dest in
            match !best with
            | Some (_, best_d) when Id.compare d best_d >= 0 -> ()
            | _ -> best := Some (id, d)
          end
        in
        List.iter consider (Leaf_set.members here.leaf_set);
        Routing_table.iter
          (fun ~row:_ ~col:_ entry ->
            match entry with Some e -> consider e.Routing_table.peer | None -> ())
          here.table;
        Option.map (fun (id, _) -> index_of_id_exn t id) !best
  end

let route t ~from ~dest =
  let limit = (2 * Id.digits) + (4 * t.leaf_half) in
  let rec loop current acc remaining =
    if remaining = 0 then failwith "Pastry_oracle.route: forwarding did not converge"
    else begin
      match next_hop t ~from:current ~dest with
      | None -> List.rev (current :: acc)
      | Some next -> loop next (current :: acc) (remaining - 1)
    end
  in
  loop from [] limit

let routing_peers t index =
  let here = t.nodes.(index) in
  let seen = Bitset.create (Array.length t.nodes) in
  let add v = if v <> index then Bitset.add seen v in
  Routing_table.iter
    (fun ~row:_ ~col:_ entry ->
      match entry with Some e -> add e.Routing_table.node | None -> ())
    here.table;
  List.iter (fun id -> add (index_of_id_exn t id)) (Leaf_set.members here.leaf_set);
  Array.of_list (Bitset.to_list seen)

(* Everything the rest of the system reads from an overlay must match the
   list-based reference: per node the routing peers, leaf-set members and
   table occupancy, per key the root and the full route. Keys are random
   draws or member ids, the two kinds the protocol routes to. Keys within
   float rounding (~2^75) of a leaf set's far end are left out:
   [covers] compares spans as floats and may count such a key as
   covered where the exact flat rule does not, so the oracle finishes one
   hop earlier (both still end at the root). A key exactly halfway between
   two members is a tie that the oracle's root gives to the clockwise
   member and the flat core to the smaller id. Random keys hit either case
   with negligible probability. *)
let assert_agrees ~context ~leaf_half ~rng ~routes ids overlay =
  let oracle = build ~leaf_half_size:leaf_half ids in
  let n = Array.length ids in
  for v = 0 to n - 1 do
    let node = Pastry.node overlay v in
    if Pastry.routing_peers overlay v <> routing_peers oracle v then
      Alcotest.failf "%s: routing peers of node %d differ" context v;
    if
      not
        (List.equal Id.equal
           (Leaf_set.members node.Pastry.leaf_set)
           (Leaf_set.members (leaf_set oracle v)))
    then Alcotest.failf "%s: leaf set of node %d differs" context v;
    if node.Pastry.occupancy <> occupancy oracle v then
      Alcotest.failf "%s: occupancy of node %d: %d, oracle %d" context v node.Pastry.occupancy
        (occupancy oracle v)
  done;
  for _ = 1 to routes do
    let dest = if Prng.bool rng then ids.(Prng.int rng n) else Id.random rng in
    let from = Prng.int rng n in
    let root = Pastry.numerically_closest overlay dest in
    if root <> numerically_closest oracle dest then
      Alcotest.failf "%s: root of %s differs" context (Id.to_hex dest);
    if Pastry.route overlay ~from ~dest <> route oracle ~from ~dest then
      Alcotest.failf "%s: route from %d to %s differs" context from (Id.to_hex dest)
  done
