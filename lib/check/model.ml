module Id = Concilium_overlay.Id
module Leaf_set = Concilium_overlay.Leaf_set
module Pastry = Concilium_overlay.Pastry
module Pki = Concilium_crypto.Pki
module Signed = Concilium_crypto.Signed
module Accusation = Concilium_core.Accusation
module Stewardship = Concilium_core.Stewardship

module Window = struct
  type entry = { guilty : bool; drop_time : float }

  type t = {
    window_size : int;
    mutable entries : entry list; (* oldest first *)
    mutable guilty_times : float list; (* every guilty drop time, newest first *)
  }

  let create ~window_size =
    if window_size <= 0 then invalid_arg "Model.Window.create: window_size must be positive";
    { window_size; entries = []; guilty_times = [] }

  let record t entry =
    let appended = t.entries @ [ entry ] in
    let overflow = List.length appended - t.window_size in
    (* Drop the oldest verdicts one by one until the window fits: the slow,
       obvious statement of "keep the newest [window_size]". *)
    let rec drop n entries =
      match entries with _ :: rest when n > 0 -> drop (n - 1) rest | _ -> entries
    in
    t.entries <- drop overflow appended;
    if entry.guilty then t.guilty_times <- entry.drop_time :: t.guilty_times

  let length t = List.length t.entries

  let guilty_count t = List.length (List.filter (fun e -> e.guilty) t.entries)

  let should_accuse t ~m = guilty_count t >= m

  let drop_times t = List.map (fun e -> e.drop_time) t.entries

  let supporting t ~m =
    match t.guilty_times with
    | [] -> []
    | _newest :: before -> List.rev (List.filteri (fun i _ -> i < m - 1) before)
end

module Store = struct
  type stored = { node : int; dht_key : Id.t; pair : string; drop_time : float }

  type t = {
    pastry : Pastry.t;
    replication : int;
    mutable contents : stored list;
  }

  let create ~pastry ~replication =
    if replication < 1 then invalid_arg "Model.Store.create: replication must be >= 1";
    { pastry; replication; contents = [] }

  (* Re-derive the accused-key hash and the accuser|accused record key from
     their documented contracts rather than calling into [Dht], so a drift
     in either derivation shows up as a divergence. *)
  let key_of_public_key public_key =
    Id.of_name ("accusation-key|" ^ Pki.public_key_to_string public_key)

  let pair_key accusation =
    let body = Signed.payload accusation in
    Printf.sprintf "%s|%s" (Id.to_hex body.Accusation.accuser) (Id.to_hex body.Accusation.accused)

  let drop_time accusation = (Signed.payload accusation).Accusation.evidence.Accusation.drop_time

  let distance_to t ~key index = Id.ring_distance (Pastry.node t.pastry index).Pastry.id key

  (* Root by exhaustive scan over every node — no reliance on the overlay's
     own [numerically_closest]. *)
  let root_of t ~key =
    let best = ref 0 in
    for index = 1 to Pastry.node_count t.pastry - 1 do
      if Id.compare (distance_to t ~key index) (distance_to t ~key !best) < 0 then best := index
    done;
    !best

  let replica_candidates t ~key =
    let root = root_of t ~key in
    let neighbors =
      List.filter_map
        (fun id -> Pastry.index_of_id t.pastry id)
        (Leaf_set.members (Pastry.node t.pastry root).Pastry.leaf_set)
    in
    let by_distance =
      List.stable_sort
        (fun a b -> Id.compare (distance_to t ~key a) (distance_to t ~key b))
        (List.filter (fun n -> n <> root) neighbors)
    in
    root :: by_distance

  let rec take n = function
    | [] -> []
    | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

  let live_replicas t ~key ~alive = take t.replication (List.filter alive (replica_candidates t ~key))

  let root_dead t ~key ~alive = not (alive (root_of t ~key))

  let route_hops t ~from ~target =
    let dest = (Pastry.node t.pastry target).Pastry.id in
    max 0 (List.length (Pastry.route t.pastry ~from ~dest) - 1)

  type put_report = { replicas_written : int; put_failed_over : bool; hops : int }

  let same_record ~node ~dht_key ~pair s =
    s.node = node && Id.equal s.dht_key dht_key && String.equal s.pair pair

  (* Newest wins: an incoming record replaces the node's record of its
     pair only with a strictly later drop time. *)
  let put t ~from ~alive ~copies ~accused_key accusation =
    let dht_key = key_of_public_key accused_key in
    let pair = pair_key accusation in
    let drop_time = drop_time accusation in
    let replicas = live_replicas t ~key:dht_key ~alive in
    let hops = ref 0 in
    for _ = 1 to max 1 copies do
      List.iter
        (fun node ->
          hops := !hops + route_hops t ~from ~target:node;
          let held = List.filter (same_record ~node ~dht_key ~pair) t.contents in
          if List.for_all (fun s -> drop_time > s.drop_time) held then
            t.contents <-
              { node; dht_key; pair; drop_time }
              :: List.filter (fun s -> not (same_record ~node ~dht_key ~pair s)) t.contents)
        replicas
    done;
    {
      replicas_written = List.length replicas;
      put_failed_over = replicas <> [] && root_dead t ~key:dht_key ~alive;
      hops = !hops;
    }

  type get_report = {
    records : (string * float) list;
    replicas_read : int;
    get_failed_over : bool;
    hops : int;
  }

  let get t ~from ~alive ~accused_key =
    let key = key_of_public_key accused_key in
    match live_replicas t ~key ~alive with
    | [] -> { records = []; replicas_read = 0; get_failed_over = false; hops = 0 }
    | (first :: _) as replicas ->
        let hops = route_hops t ~from ~target:first in
        let held =
          List.filter (fun s -> List.mem s.node replicas && Id.equal s.dht_key key) t.contents
        in
        (* Each pair once, at the latest drop time any live replica holds. *)
        let pairs = List.sort_uniq String.compare (List.map (fun s -> s.pair) held) in
        let newest pair =
          List.fold_left
            (fun acc s -> if String.equal s.pair pair then Float.max acc s.drop_time else acc)
            Float.neg_infinity held
        in
        {
          records = List.map (fun pair -> (pair, newest pair)) pairs;
          replicas_read = List.length replicas;
          get_failed_over = root_dead t ~key ~alive;
          hops;
        }

  let drop_replica t ~node = t.contents <- List.filter (fun s -> s.node <> node) t.contents

  let stored_count t ~node =
    List.length (List.filter (fun s -> s.node = node) t.contents)

  let total_records t = List.length t.contents
end

module Steward = struct
  type resolution = { final : Stewardship.target option; exonerated : int list }

  let resolve ~route judgments =
    let positions = Array.length judgments in
    (* The walk stands on position [i]'s judgment, whose suspect is the hop
       at [i + 1]. *)
    let rec walk i exonerated (judgment : Stewardship.judgment) =
      let suspect = route.(i + 1) in
      match judgment.Stewardship.target with
      | Stewardship.Network -> { final = Some Stewardship.Network; exonerated = List.rev exonerated }
      | Stewardship.Offline _ ->
          { final = Some (Stewardship.Offline suspect); exonerated = List.rev exonerated }
      | Stewardship.Next_hop _ -> (
          match if i + 1 < positions then judgments.(i + 1) else None with
          | Some next when next.Stewardship.pushed -> walk (i + 1) (suspect :: exonerated) next
          | Some _ | None ->
              { final = Some (Stewardship.Next_hop suspect); exonerated = List.rev exonerated })
    in
    let rec anchor i =
      if i >= positions then { final = None; exonerated = [] }
      else match judgments.(i) with Some judgment -> walk i [] judgment | None -> anchor (i + 1)
    in
    anchor 0
end
