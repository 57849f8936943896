module Bitset = Concilium_util.Bitset

type node = { index : int; id : Id.t; leaf_set : Leaf_set.t; occupancy : int }

(* Node indices are the caller's order; the flat core works in ring
   positions (ascending id). [position] and [index_of] translate. *)
type t = {
  nodes : node array;
  table : Inc_table.t;
  position : int array;  (* node index -> ring position *)
  index_of : int array;  (* ring position -> node index *)
  leaf_half : int;
}

let build ?(leaf_half_size = 8) ids =
  let n = Array.length ids in
  if n < 2 then invalid_arg "Pastry.build: need at least two nodes";
  let index_of = Array.init n Fun.id in
  Array.sort (fun a b -> Id.compare ids.(a) ids.(b)) index_of;
  let sorted_ids = Array.map (fun v -> ids.(v)) index_of in
  for p = 1 to n - 1 do
    if Id.equal sorted_ids.(p - 1) sorted_ids.(p) then
      invalid_arg "Pastry.build: duplicate identifier"
  done;
  let table = Inc_table.build (Ring.of_sorted_ids sorted_ids) in
  let position = Array.make n 0 in
  Array.iteri (fun p v -> position.(v) <- p) index_of;
  (* Occupancy is read per (advertisement, validator) pair by the Section
     3.1 exchange, so it is counted once here rather than on demand. *)
  let nodes =
    Array.mapi
      (fun index id ->
        {
          index;
          id;
          leaf_set = Leaf_set.build ~owner:id ~sorted_ids ~half_size:leaf_half_size;
          occupancy = Inc_table.fold_entries table ~owner:position.(index) (fun k _ -> k + 1) 0;
        })
      ids
  in
  { nodes; table; position; index_of; leaf_half = leaf_half_size }

let node_count t = Array.length t.nodes
let node t i = t.nodes.(i)
let leaf_half_size t = t.leaf_half

let index_of_id t id =
  Option.map (fun p -> t.index_of.(p)) (Ring.position_of_id (Inc_table.ring t.table) id)

let numerically_closest t key = t.index_of.(Inc_table.numerically_closest t.table key)

let next_hop t ~from ~dest =
  Option.map
    (fun p -> t.index_of.(p))
    (Inc_table.next_hop t.table ~leaf_half:t.leaf_half ~here:t.position.(from) ~dest)

let route t ~from ~dest =
  let limit = (2 * Id.digits) + (4 * t.leaf_half) in
  let rec loop current acc remaining =
    if remaining = 0 then failwith "Pastry.route: forwarding did not converge"
    else begin
      match next_hop t ~from:current ~dest with
      | None -> List.rev (current :: acc)
      | Some next -> loop next (current :: acc) (remaining - 1)
    end
  in
  loop from [] limit

let routing_peers t index =
  let seen = Bitset.create (Array.length t.nodes) in
  let add v = if v <> index then Bitset.add seen v in
  Inc_table.fold_entries t.table ~owner:t.position.(index) (fun () p -> add t.index_of.(p)) ();
  List.iter
    (fun id -> Option.iter add (index_of_id t id))
    (Leaf_set.members t.nodes.(index).leaf_set);
  (* Bitset lists are ascending: the peers arrive sorted. *)
  Array.of_list (Bitset.to_list seen)

let mean_routing_peer_count t =
  let total = ref 0 in
  for i = 0 to node_count t - 1 do
    total := !total + Array.length (routing_peers t i)
  done;
  float_of_int !total /. float_of_int (node_count t)
