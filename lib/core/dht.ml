module Id = Concilium_overlay.Id
module Leaf_set = Concilium_overlay.Leaf_set
module Pastry = Concilium_overlay.Pastry
module Pki = Concilium_crypto.Pki
module Signed = Concilium_crypto.Signed

(* Each node's store: DHT key, then accuser|accused, to the newest record
   of that pair. *)
type t = {
  pastry : Pastry.t;
  replication : int;
  stores : (Id.t, (string, Accusation.t) Hashtbl.t) Hashtbl.t array;
}

let create ~pastry ~replication =
  if replication < 1 then invalid_arg "Dht.create: replication must be >= 1";
  {
    pastry;
    replication;
    stores = Array.init (Pastry.node_count pastry) (fun _ -> Hashtbl.create 8);
  }

let key_of_public_key public_key =
  Id.of_name ("accusation-key|" ^ Pki.public_key_to_string public_key)

(* Root first, then the root's leaf-set members by ring proximity to the
   key: the full candidate ordering that failover walks when replicas are
   down. *)
let replica_candidates t ~key =
  let root = Pastry.numerically_closest t.pastry key in
  let root_node = Pastry.node t.pastry root in
  let neighbors =
    List.filter_map
      (fun id -> Pastry.index_of_id t.pastry id)
      (Leaf_set.members root_node.Pastry.leaf_set)
  in
  let by_distance =
    List.sort
      (fun a b ->
        Id.compare
          (Id.ring_distance (Pastry.node t.pastry a).Pastry.id key)
          (Id.ring_distance (Pastry.node t.pastry b).Pastry.id key))
      (List.filter (fun n -> n <> root) neighbors)
  in
  root :: by_distance

let rec take n = function
  | [] -> []
  | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest

let replica_nodes t ~key = take t.replication (replica_candidates t ~key)

let live_replicas t ~key ~alive =
  take t.replication (List.filter alive (replica_candidates t ~key))

let pair_key accusation =
  let body = Signed.payload accusation in
  Id.to_hex body.Accusation.accuser ^ "|" ^ Id.to_hex body.Accusation.accused

let drop_time accusation = (Signed.payload accusation).Accusation.evidence.Accusation.drop_time

let newest_wins ~incoming ~stored = Float.compare (drop_time incoming) (drop_time stored) > 0

(* The newest-wins rule, for a put's replica and a get's merge alike: a
   record replaces the pair's stored one only with a later primary drop
   time, so an equal one (a duplicate delivery) leaves it in place. *)
let keep ~supersedes records pair incoming =
  match Hashtbl.find_opt records pair with
  | Some stored when not (supersedes ~incoming ~stored) -> ()
  | Some _ | None -> Hashtbl.replace records pair incoming

let route_hops t ~from ~target =
  let dest = (Pastry.node t.pastry target).Pastry.id in
  max 0 (List.length (Pastry.route t.pastry ~from ~dest) - 1)

type put_report = { replicas_written : int; put_failed_over : bool }

type get_report = {
  accusations : Accusation.t list;
  replicas_read : int;
  get_failed_over : bool;
}

(* Failover happened iff the key's root candidate is dead yet some live
   candidate absorbed the operation: the root-first candidate order means
   any such operation landed strictly further from the key than intended. *)
let root_dead t ~key ~alive =
  match replica_candidates t ~key with [] -> false | root :: _ -> not (alive root)

let put_with ~supersedes t ~from ?(alive = fun _ -> true) ?(copies = 1) ~accused_key accusation
    ~hops =
  let key = key_of_public_key accused_key in
  let pair = pair_key accusation in
  (* Failover: when the root (or any closer replica) is dead, the write
     lands on the next-closest live candidates so [replication] surviving
     copies exist whenever enough of the leaf set is up. Each duplicated
     delivery re-pays routing hops and is absorbed by the newest-wins
     rule. *)
  let replicas = live_replicas t ~key ~alive in
  for _ = 1 to max 1 copies do
    List.iter
      (fun replica ->
        hops := !hops + route_hops t ~from ~target:replica;
        let store = t.stores.(replica) in
        let records =
          match Hashtbl.find_opt store key with
          | Some records -> records
          | None ->
              let records = Hashtbl.create 4 in
              Hashtbl.replace store key records;
              records
        in
        keep ~supersedes records pair accusation)
      replicas
  done;
  {
    replicas_written = List.length replicas;
    put_failed_over = replicas <> [] && root_dead t ~key ~alive;
  }

let put = put_with ~supersedes:newest_wins

let get t ~from ?(alive = fun _ -> true) ~accused_key ~hops () =
  let key = key_of_public_key accused_key in
  match live_replicas t ~key ~alive with
  | [] -> { accusations = []; replicas_read = 0; get_failed_over = false }
  | (first :: _) as replicas ->
      hops := !hops + route_hops t ~from ~target:first;
      (* Merge across the surviving replicas, newest record per pair: a
         replica that lost its store, or missed a newer write while down,
         degrades the read only if every survivor did. Sorting on the pair
         makes the result hash-seed-independent. *)
      let merged = Hashtbl.create 8 in
      List.iter
        (fun replica ->
          match Hashtbl.find_opt t.stores.(replica) key with
          | Some records -> Hashtbl.iter (keep ~supersedes:newest_wins merged) records
          | None -> ())
        replicas;
      let accusations =
        Hashtbl.fold (fun pair accusation acc -> (pair, accusation) :: acc) merged []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.map snd
      in
      {
        accusations;
        replicas_read = List.length replicas;
        get_failed_over = root_dead t ~key ~alive;
      }

let drop_replica t ~node = Hashtbl.reset t.stores.(node)

let stored_count t ~node =
  (* A sum: the order of the fold does not matter.  lint: allow hashtbl-order *)
  Hashtbl.fold (fun _ records acc -> acc + Hashtbl.length records) t.stores.(node) 0

let total_records t =
  let total = ref 0 in
  for node = 0 to Array.length t.stores - 1 do
    total := !total + stored_count t ~node
  done;
  !total
