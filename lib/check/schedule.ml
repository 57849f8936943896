module Json = Concilium_util.Json
module Prng = Concilium_util.Prng
module Chaos = Concilium_netsim.Chaos

type steward_target = Blame_next_hop | Blame_network | Next_hop_offline
type steward_judgment = { target : steward_target; pushed : bool }

type op =
  | Win_record of { win : int; guilty : bool; drop_time : float }
  | Dht_put of { from_node : int; accuser : int; accused : int; drop_time : float; copies : int }
  | Dht_get of { from_node : int; accused : int }
  | Dht_crash of { node : int }
  | Dht_revive of { node : int }
  | Dht_drop_replica of { node : int }
  | Steward_resolve of { route : int list; judgments : steward_judgment option list }

type t = {
  seed : int;
  nodes : int;
  window_size : int;
  m : int;
  replication : int;
  ops : op list;
}

let with_ops t ops = { t with ops }
let op_count t = List.length t.ops

(* ---------- Generation ---------- *)

let pick_pair rng ~nodes =
  let a = Prng.int rng nodes in
  let b = (a + 1 + Prng.int rng (nodes - 1)) mod nodes in
  (a, b)

let fresh_verdict rng ~win ~at =
  let guilty = Prng.bernoulli rng 0.6 in
  Win_record { win; guilty; drop_time = at }

(* What a steward holds against its next hop, in one of the shapes
   [Protocol] builds, or nothing (it never saw the message, or had nothing
   to prove). *)
let random_judgment rng ~pushed =
  if Prng.bernoulli rng 0.15 then None
  else
    let target =
      match Prng.int rng 5 with 0 -> Blame_network | 1 -> Next_hop_offline | _ -> Blame_next_hop
    in
    Some { target; pushed }

let random_route rng ~nodes =
  let route = Array.to_list (Prng.sample_without_replacement rng (3 + Prng.int rng 4) nodes) in
  let judgments =
    List.init (List.length route - 1) (fun _ ->
        let pushed = Prng.bernoulli rng 0.75 in
        random_judgment rng ~pushed)
  in
  Steward_resolve { route; judgments }

(* A message that dies inside a coalition: an outsider sends through the
   (distinct) members to an outsider. The sender blames its next hop and
   pushes the verdict; members withhold theirs, as [Message_dropper] hops
   do. *)
let coalition_route rng ~nodes members =
  let members = Array.to_list members in
  let outsiders =
    Array.of_list (List.filter (fun v -> not (List.mem v members)) (List.init nodes Fun.id))
  in
  let ends = Prng.sample_without_replacement rng 2 (Array.length outsiders) in
  let route = (outsiders.(ends.(0)) :: members) @ [ outsiders.(ends.(1)) ] in
  let judgments =
    Some { target = Blame_next_hop; pushed = true }
    :: List.map (fun _ -> random_judgment rng ~pushed:false) members
  in
  Steward_resolve { route; judgments }

let baseline_tick rng ~nodes ~at =
  match Prng.int rng 4 with
  | 0 -> fresh_verdict rng ~win:(Prng.int rng nodes) ~at
  | 1 ->
      let accuser, accused = pick_pair rng ~nodes in
      Dht_put { from_node = Prng.int rng nodes; accuser; accused; drop_time = at; copies = 1 }
  | 2 -> Dht_get { from_node = Prng.int rng nodes; accused = Prng.int rng nodes }
  | _ -> random_route rng ~nodes

let ops_of_fault rng ~nodes fault =
  match fault with
  | Chaos.Link_flap { link; start; _ } ->
      [ (start, fresh_verdict rng ~win:(link mod nodes) ~at:start) ]
  | Chaos.Burst_loss { links; start; _ } ->
      (* A correlated incident produces a clump of near-simultaneous
         verdicts across windows. *)
      List.mapi
        (fun i link ->
          let at = start +. (0.25 *. float_of_int i) in
          (at, fresh_verdict rng ~win:(link mod nodes) ~at))
        (Array.to_list (Array.sub links 0 (min 3 (Array.length links))))
  | Chaos.Partition { start; duration; _ } ->
      (* A partition interrupts a read, and healing it triggers a
         catch-up read. *)
      [
        (start, Dht_get { from_node = Prng.int rng nodes; accused = Prng.int rng nodes });
        (start +. duration, Dht_get { from_node = Prng.int rng nodes; accused = Prng.int rng nodes });
      ]
  | Chaos.Node_crash { node; start; duration } ->
      (* A pair's accusation is re-filed while the node is down, so if the
         node replicates the pair's key it misses the newer write and
         serves the older record again once it is back; the read after the
         restart must still return the newer one. *)
      let node = node mod nodes in
      let accuser, accused = pick_pair rng ~nodes in
      let refiled = start +. (0.5 *. duration) in
      let put at =
        Dht_put { from_node = Prng.int rng nodes; accuser; accused; drop_time = at; copies = 1 }
      in
      [
        (start, put start);
        (start, Dht_crash { node });
        (refiled, put refiled);
        (start +. duration, Dht_revive { node });
        (start +. duration, Dht_get { from_node = Prng.int rng nodes; accused });
      ]
  | Chaos.Replica_loss { node; time } -> [ (time, Dht_drop_replica { node = node mod nodes }) ]
  | Chaos.Control_delay { start; duration; _ } ->
      (* Delayed control traffic: the judgment of a drop at [start] lands
         once the delay has passed, still stamped with the drop time, and
         so does the accusation filed on it, after a newer accusation of
         the same pair went out undelayed; a read follows. *)
      let verdict = (start +. duration, fresh_verdict rng ~win:(Prng.int rng nodes) ~at:start) in
      let accuser, accused = pick_pair rng ~nodes in
      let newer = start +. (0.5 *. duration) in
      let put at =
        Dht_put { from_node = Prng.int rng nodes; accuser; accused; drop_time = at; copies = 1 }
      in
      [
        verdict;
        (newer, put newer);
        (start +. duration, put start);
        (start +. duration, Dht_get { from_node = Prng.int rng nodes; accused });
      ]
  | Chaos.Control_duplication { start; copies; _ } ->
      let accuser, accused = pick_pair rng ~nodes in
      [
        (start, Dht_put { from_node = Prng.int rng nodes; accuser; accused; drop_time = start; copies });
      ]

(* Adversary campaigns map onto the same op vocabulary: the lockstep model
   does not simulate lying probers, but the *state traffic* an adversary
   induces — contradictory verdicts crowding one window, accusation puts
   against a framed victim, withheld verdicts inside a coalition, replica
   loss around an eclipsed node, read storms from biased samplers — must
   leave model and runtime in agreement. The conformance checker therefore
   consumes adversary-bearing schedules with no special cases. *)
let ops_of_adversary rng ~nodes adversary =
  let wrap v = ((v mod nodes) + nodes) mod nodes in
  match adversary with
  | Chaos.Collusion { members; corroboration; start; duration; _ } ->
      (* Each colluder's window fills with a guilty verdict (the judge's
         own evidence) chased by a corroborated innocent one (the
         coalition's shield), and the coalition's target gets a formal
         accusation put; the campaign ends with a message lost inside the
         coalition. *)
      let shielded = wrap members.(0) in
      let campaign =
        Array.to_list members
        |> List.concat_map (fun m ->
               let m = wrap m in
               let at = start +. Prng.float rng (Float.max duration 1.) in
               let guilty = (at, fresh_verdict rng ~win:m ~at) in
               let shield =
                 if Prng.bernoulli rng corroboration then
                   [
                     ( at +. 0.5,
                       Win_record { win = m; guilty = false; drop_time = at +. 0.5 } );
                   ]
                 else []
               in
               let put =
                 ( at +. 1.,
                   Dht_put
                     { from_node = m; accuser = m; accused = shielded; drop_time = at +. 1.; copies = 1 }
                 )
               in
               (guilty :: shield) @ [ put ])
      in
      campaign @ [ (start +. duration, coalition_route rng ~nodes (Array.map wrap members)) ]
  | Chaos.Lying_reporters { reporters; victim; corroboration; start; duration } ->
      (* Framing votes crowd the victim's window, some backed by
         accusation puts. *)
      let victim = wrap victim in
      Array.to_list reporters
      |> List.concat_map (fun r ->
             let r = wrap r in
             let at = start +. Prng.float rng (Float.max duration 1.) in
             let vote = (at, Win_record { win = victim; guilty = true; drop_time = at }) in
             if Prng.bernoulli rng corroboration then
               [
                 vote;
                 ( at +. 0.5,
                   Dht_put
                     { from_node = r; accuser = r; accused = victim; drop_time = at +. 0.5; copies = 1 }
                 );
               ]
             else [ vote ])
  | Chaos.Eclipse { attackers; victim; start; duration } ->
      (* Isolating a node looks like replica loss bracketed by churn, with
         the attackers hammering reads to map the victim's state. *)
      let victim = wrap victim in
      let storms =
        Array.to_list attackers
        |> List.map (fun a ->
               let at = start +. Prng.float rng (Float.max duration 1.) in
               (at, Dht_get { from_node = wrap a; accused = victim }))
      in
      [
        (start, Dht_crash { node = victim });
        (start +. (0.5 *. duration), Dht_drop_replica { node = victim });
        (start +. duration, Dht_revive { node = victim });
      ]
      @ storms
  | Chaos.Biased_sampling { samplers; favored; start; duration } ->
      (* Biased samplers over-read the favored node's records. *)
      Array.to_list samplers
      |> List.concat_map (fun s ->
             let s = wrap s in
             List.init 3 (fun i ->
                 let at = start +. (float_of_int (i + 1) /. 4. *. Float.max duration 1.) in
                 (at, Dht_get { from_node = s; accused = wrap favored })))

let generate ~seed =
  let rng = Prng.of_seed (Int64.of_int seed) in
  let nodes = 16 + Prng.int rng 9 in
  let window_size = 4 + Prng.int rng 9 in
  let m = 1 + Prng.int rng window_size in
  let replication = 3 + Prng.int rng 3 in
  let horizon = 3600. in
  let plan =
    Chaos.sample ~rng:(Prng.split rng) ~config:Chaos.default_config
      ~links:(Array.init 40 (fun i -> i))
      ~nodes ~cuts:[| [| 0; 1; 2 |]; [| 10; 11 |] |] ~horizon
  in
  let adversary_plan =
    Chaos.sample_adversaries ~rng:(Prng.split rng) ~nodes ~horizon ()
  in
  let from_faults = List.concat_map (ops_of_fault rng ~nodes) plan in
  let from_adversaries = List.concat_map (ops_of_adversary rng ~nodes) adversary_plan in
  let baseline =
    List.init (int_of_float (horizon /. 60.)) (fun tick ->
        let at = 30. +. (60. *. float_of_int tick) in
        (at, baseline_tick rng ~nodes ~at))
  in
  let timed =
    List.stable_sort
      (fun (a, _) (b, _) -> Float.compare a b)
      (baseline @ from_faults @ from_adversaries)
  in
  { seed; nodes; window_size; m; replication; ops = List.map snd timed }

(* ---------- JSON ---------- *)

let steward_target_name = function
  | Blame_next_hop -> "next_hop"
  | Blame_network -> "network"
  | Next_hop_offline -> "offline"

let encode_op op =
  let open Json in
  match op with
  | Win_record { win; guilty; drop_time } ->
      Obj
        [
          ("op", String "win_record");
          ("win", Int win);
          ("guilty", Bool guilty);
          ("drop_time", Float drop_time);
        ]
  | Dht_put { from_node; accuser; accused; drop_time; copies } ->
      Obj
        [
          ("op", String "dht_put");
          ("from", Int from_node);
          ("accuser", Int accuser);
          ("accused", Int accused);
          ("drop_time", Float drop_time);
          ("copies", Int copies);
        ]
  | Dht_get { from_node; accused } ->
      Obj [ ("op", String "dht_get"); ("from", Int from_node); ("accused", Int accused) ]
  | Dht_crash { node } -> Obj [ ("op", String "dht_crash"); ("node", Int node) ]
  | Dht_revive { node } -> Obj [ ("op", String "dht_revive"); ("node", Int node) ]
  | Dht_drop_replica { node } -> Obj [ ("op", String "dht_drop_replica"); ("node", Int node) ]
  | Steward_resolve { route; judgments } ->
      let judgment = function
        | None -> Null
        | Some { target; pushed } ->
            Obj [ ("target", String (steward_target_name target)); ("pushed", Bool pushed) ]
      in
      Obj
        [
          ("op", String "steward_resolve");
          ("route", List (List.map (fun hop -> Int hop) route));
          ("judgments", List (List.map judgment judgments));
        ]

let encode t =
  Json.Obj
    [
      ("seed", Json.Int t.seed);
      ("nodes", Json.Int t.nodes);
      ("window_size", Json.Int t.window_size);
      ("m", Json.Int t.m);
      ("replication", Json.Int t.replication);
      ("ops", Json.List (List.map encode_op t.ops));
    ]

let field_int json name =
  match Option.bind (Json.member name json) Json.to_int with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or non-integer field %S" name)

let field_float json name =
  match Option.bind (Json.member name json) Json.to_float with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or non-float field %S" name)

let field_bool json name =
  match Option.bind (Json.member name json) Json.to_bool with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or non-boolean field %S" name)

let field_list json name =
  match Option.bind (Json.member name json) Json.to_list with
  | Some items -> Ok items
  | None -> Error (Printf.sprintf "missing or non-list field %S" name)

let ( let* ) r f = Result.bind r f

(* A node index must name one of the schedule's [nodes]: [Lockstep] indexes
   its per-node arrays with it. *)
let in_range ~nodes what v =
  if v >= 0 && v < nodes then Ok v
  else Error (Printf.sprintf "%s = %d is outside [0, %d)" what v nodes)

let field_node ~nodes json name =
  let* v = field_int json name in
  in_range ~nodes (Printf.sprintf "field %S" name) v

(* Decode the items of list field [name] in order, stopping at the first
   error, which names the item's position. *)
let decode_all name decode items =
  let rec go acc position = function
    | [] -> Ok (List.rev acc)
    | item :: rest -> (
        match decode item with
        | Ok value -> go (value :: acc) (position + 1) rest
        | Error message -> Error (Printf.sprintf "%s[%d]: %s" name position message))
  in
  go [] 0 items

let decode_hop ~nodes json =
  let* hop = Option.to_result ~none:"non-integer hop" (Json.to_int json) in
  in_range ~nodes "hop" hop

let decode_judgment = function
  | Json.Null -> Ok None
  | json ->
      let* target =
        match Option.bind (Json.member "target" json) Json.string_value with
        | Some "next_hop" -> Ok Blame_next_hop
        | Some "network" -> Ok Blame_network
        | Some "offline" -> Ok Next_hop_offline
        | _ -> Error "judgment without a known \"target\""
      in
      let* pushed = field_bool json "pushed" in
      Ok (Some { target; pushed })

let decode_op ~nodes json =
  let field_node = field_node ~nodes json in
  match Option.bind (Json.member "op" json) Json.string_value with
  | None -> Error "operation without an \"op\" tag"
  | Some "win_record" ->
      let* win = field_node "win" in
      let* guilty = field_bool json "guilty" in
      let* drop_time = field_float json "drop_time" in
      Ok (Win_record { win; guilty; drop_time })
  | Some "dht_put" ->
      let* from_node = field_node "from" in
      let* accuser = field_node "accuser" in
      let* accused = field_node "accused" in
      let* drop_time = field_float json "drop_time" in
      let* copies = field_int json "copies" in
      Ok (Dht_put { from_node; accuser; accused; drop_time; copies })
  | Some "dht_get" ->
      let* from_node = field_node "from" in
      let* accused = field_node "accused" in
      Ok (Dht_get { from_node; accused })
  | Some "dht_crash" ->
      let* node = field_node "node" in
      Ok (Dht_crash { node })
  | Some "dht_revive" ->
      let* node = field_node "node" in
      Ok (Dht_revive { node })
  | Some "dht_drop_replica" ->
      let* node = field_node "node" in
      Ok (Dht_drop_replica { node })
  | Some "steward_resolve" ->
      let* route = Result.bind (field_list json "route") (decode_all "route" (decode_hop ~nodes)) in
      let* judgments =
        Result.bind (field_list json "judgments") (decode_all "judgments" decode_judgment)
      in
      if List.length route < 2 || List.length judgments <> List.length route - 1 then
        Error "steward_resolve needs two or more hops and a judgment slot per hop but the last"
      else if List.length (List.sort_uniq Int.compare route) <> List.length route then
        Error "steward_resolve route repeats a hop"
      else Ok (Steward_resolve { route; judgments })
  | Some other -> Error (Printf.sprintf "unknown operation %S" other)

let decode json =
  let* seed = field_int json "seed" in
  let* nodes = field_int json "nodes" in
  let* window_size = field_int json "window_size" in
  let* m = field_int json "m" in
  let* replication = field_int json "replication" in
  (* [Lockstep] signs each stored accusation with two probers' votes, so a
     put needs two nodes besides its accuser and accused. *)
  if nodes < 4 then Error "schedule needs at least four nodes"
  else if window_size < 1 then Error "window_size must be positive"
  else if m < 1 then Error "m must be positive"
  else if replication < 1 then Error "replication must be positive"
  else
    let* ops = Result.bind (field_list json "ops") (decode_all "ops" (decode_op ~nodes)) in
    Ok { seed; nodes; window_size; m; replication; ops }
