(* The stored-finger Chord overlay, kept as a reference for [Chord]: every
   node holds its successor list and its 128 fingers (finger k is the first
   node at or after id + 2^k, kept only inside its interval
   [id + 2^k, id + 2^(k+1))), and a message goes to the successor when that
   owns the key, otherwise to the closest preceding finger or successor,
   found by a linear scan. [Chord] derives the same rule from a ring and
   must agree with it on every hop; bench/main.ml times its routes against
   this scan. The file uses no test library, so the bench can copy it. *)

module Sorted = Concilium_util.Sorted
module Id = Concilium_overlay.Id
module Chord = Concilium_overlay.Chord

type entry = { peer : Id.t; node : int }

type node = {
  id : Id.t;
  successors : entry array;  (* ascending clockwise from the node *)
  fingers : entry option array;  (* [None] = empty interval *)
}

type t = { nodes : node array; sorted : (Id.t * int) array }

let compare_fst (a, _) (b, _) = Id.compare a b

(* First node clockwise at-or-after [key] in the sorted ring. *)
let successor_position sorted key =
  let position = Sorted.lower_bound compare_fst sorted (key, 0) in
  if position >= Array.length sorted then 0 else position

let build ids =
  let n = Array.length ids in
  if n < 2 then invalid_arg "Chord_oracle.build: need at least two nodes";
  let sorted = Array.mapi (fun index id -> (id, index)) ids in
  Array.sort compare_fst sorted;
  let entry_at ring_position =
    let id, node = sorted.(ring_position mod n) in
    { peer = id; node }
  in
  let nodes =
    Array.map
      (fun id ->
        let my_position = successor_position sorted id in
        let successors =
          Array.init (min Chord.successor_count (n - 1)) (fun k -> entry_at (my_position + k + 1))
        in
        let fingers =
          Array.init Chord.finger_count (fun k ->
              let target = Id.add_power_of_two id k in
              let upper =
                if k = Chord.finger_count - 1 then id else Id.add_power_of_two id (k + 1)
              in
              let candidate = entry_at (successor_position sorted target) in
              if
                (not (Id.equal candidate.peer id))
                && Id.in_clockwise_interval candidate.peer ~lo:target ~hi:upper
              then Some candidate
              else None)
        in
        { id; successors; fingers })
      ids
  in
  { nodes; sorted }

let node t i = t.nodes.(i)

let successor_of_key t key = snd t.sorted.(successor_position t.sorted key)

let next_hop t ~from ~dest =
  let here = t.nodes.(from) in
  if Id.equal here.id dest then None
  else begin
    let immediate = here.successors.(0) in
    (* dest in (here, successor]: the successor owns it. *)
    if
      Id.in_clockwise_interval dest ~lo:(Id.succ here.id) ~hi:(Id.succ immediate.peer)
      || Id.equal dest immediate.peer
    then Some immediate.node
    else begin
      (* Closest preceding finger or successor: maximise clockwise distance
         from here while staying strictly before dest. *)
      let best = ref None in
      let consider (candidate : entry) =
        if Id.in_clockwise_interval candidate.peer ~lo:(Id.succ here.id) ~hi:dest then begin
          let progress = Id.clockwise_distance here.id candidate.peer in
          match !best with
          | Some (_, best_progress) when Id.compare progress best_progress <= 0 -> ()
          | _ -> best := Some (candidate.node, progress)
        end
      in
      Array.iter (fun finger -> Option.iter consider finger) here.fingers;
      Array.iter consider here.successors;
      match !best with Some (node, _) -> Some node | None -> Some immediate.node
    end
  end

(* Hops from [from] to the key's owner, both ends included. *)
let route t ~from ~dest =
  let owner = successor_of_key t dest in
  let rec forward current acc remaining =
    if current = owner then List.rev (current :: acc)
    else if remaining = 0 then failwith "Chord_oracle.route: forwarding did not converge"
    else begin
      match next_hop t ~from:current ~dest with
      | None -> List.rev (current :: acc)
      | Some next -> forward next (current :: acc) (remaining - 1)
    end
  in
  forward from [] ((2 * Chord.finger_count) + Array.length t.nodes)

let interval_occupancy t i =
  Array.fold_left
    (fun acc finger -> match finger with Some _ -> acc + 1 | None -> acc)
    0 t.nodes.(i).fingers
