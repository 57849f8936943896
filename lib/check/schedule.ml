module Json = Concilium_util.Json
module Prng = Concilium_util.Prng
module Chaos = Concilium_netsim.Chaos
module Blame = Concilium_core.Blame

type op =
  | Win_record of { win : int; guilty : bool; blame : float; drop_time : float }
  | Win_expire of { win : int; before : float }
  | Dht_put of { from_node : int; accuser : int; accused : int; drop_time : float; copies : int }
  | Dht_get of { from_node : int; accused : int }
  | Dht_crash of { node : int }
  | Dht_revive of { node : int }
  | Dht_drop_replica of { node : int }
  | Arch_record of { owner : int; accused : int; drop_time : float }
  | Arch_defend of { owner : int; accuser : int; drop_time : float }

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

let pp_op fmt op =
  match op with
  | Win_record { win; guilty; blame; drop_time } ->
      Format.fprintf fmt "win_record[%d] %s blame=%.3f t=%.6f" win
        (if guilty then "guilty" else "innocent")
        blame drop_time
  | Win_expire { win; before } -> Format.fprintf fmt "win_expire[%d] before=%.6f" win before
  | Dht_put { from_node; accuser; accused; drop_time; copies } ->
      Format.fprintf fmt "dht_put from=%d %d->%d t=%.6f copies=%d" from_node accuser accused
        drop_time copies
  | Dht_get { from_node; accused } -> Format.fprintf fmt "dht_get from=%d accused=%d" from_node accused
  | Dht_crash { node } -> Format.fprintf fmt "dht_crash %d" node
  | Dht_revive { node } -> Format.fprintf fmt "dht_revive %d" node
  | Dht_drop_replica { node } -> Format.fprintf fmt "dht_drop_replica %d" node
  | Arch_record { owner; accused; drop_time } ->
      Format.fprintf fmt "arch_record[%d] accused=%d t=%.6f" owner accused drop_time
  | Arch_defend { owner; accuser; drop_time } ->
      Format.fprintf fmt "arch_defend[%d] accuser=%d t=%.6f" owner accuser drop_time

(* ---------- Generation ---------- *)

(* First pass emits timed operations; expiries and defenses stay symbolic
   so the second pass can aim them at drop times that actually exist by
   then, manufacturing exact-boundary cases. *)
type proto =
  | Concrete of op
  | Expire_at of { win : int; at : float }
  | Defend_at of { owner : int; at : float }

let pick_pair rng ~nodes =
  let a = Prng.int rng nodes in
  let b = (a + 1 + Prng.int rng (nodes - 1)) mod nodes in
  (a, b)

let fresh_verdict rng ~win ~at =
  let guilty = Prng.bernoulli rng 0.6 in
  let blame =
    if guilty then 0.4 +. Prng.float rng 0.6 else Prng.float rng 0.4
  in
  Concrete (Win_record { win; guilty; blame; drop_time = at })

let baseline_tick rng ~nodes ~at =
  match Prng.int rng 6 with
  | 0 -> [ fresh_verdict rng ~win:(Prng.int rng nodes) ~at ]
  | 1 ->
      let accuser, accused = pick_pair rng ~nodes in
      [ Concrete (Dht_put { from_node = Prng.int rng nodes; accuser; accused; drop_time = at; copies = 1 }) ]
  | 2 -> [ Concrete (Dht_get { from_node = Prng.int rng nodes; accused = Prng.int rng nodes }) ]
  | 3 ->
      let owner, accused = pick_pair rng ~nodes in
      [ Concrete (Arch_record { owner; accused; drop_time = at }) ]
  | 4 -> [ Defend_at { owner = Prng.int rng nodes; at } ]
  | _ -> [ Expire_at { win = Prng.int rng nodes; at } ]

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
      (* Healing a partition triggers catch-up reads and evidence expiry. *)
      [
        (start, Concrete (Dht_get { from_node = Prng.int rng nodes; accused = Prng.int rng nodes }));
        (start +. duration, Expire_at { win = Prng.int rng nodes; at = start +. duration });
      ]
  | Chaos.Node_crash { node; start; duration } ->
      let node = node mod nodes in
      [ (start, Concrete (Dht_crash { node })); (start +. duration, Concrete (Dht_revive { node })) ]
  | Chaos.Replica_loss { node; time } ->
      [ (time, Concrete (Dht_drop_replica { node = node mod nodes })) ]
  | Chaos.Control_delay { start; duration; _ } ->
      (* Delayed control traffic: the archive fills now, the defense query
         arrives once the window has passed. *)
      let owner, accused = pick_pair rng ~nodes in
      [
        (start, Concrete (Arch_record { owner; accused; drop_time = start }));
        (start +. duration, Defend_at { owner; at = start +. duration });
      ]
  | Chaos.Control_duplication { start; copies; _ } ->
      let accuser, accused = pick_pair rng ~nodes in
      [
        ( start,
          Concrete
            (Dht_put { from_node = Prng.int rng nodes; accuser; accused; drop_time = start; copies })
        );
      ]

(* Adversary campaigns map onto the same op vocabulary: the lockstep model
   does not simulate lying probers, but the *state traffic* an adversary
   induces — contradictory verdicts crowding one window, accusation puts
   against a framed victim, replica loss around an eclipsed node, read
   storms from biased samplers — must leave model and runtime in agreement.
   The conformance checker therefore consumes adversary-bearing schedules
   with no special cases. *)
let ops_of_adversary rng ~nodes adversary =
  let wrap v = ((v mod nodes) + nodes) mod nodes in
  match adversary with
  | Chaos.Collusion { members; corroboration; start; duration; _ } ->
      (* Each colluder's window fills with a guilty verdict (the judge's
         own evidence) chased by a corroborated innocent one (the
         coalition's shield), and the coalition's target gets a formal
         accusation put; the campaign's end expires the evidence. *)
      let shielded = wrap members.(0) in
      Array.to_list members
      |> List.concat_map (fun m ->
             let m = wrap m in
             let at = start +. Prng.float rng (Float.max duration 1.) in
             let guilty =
               (at, fresh_verdict rng ~win:m ~at)
             in
             let shield =
               if Prng.bernoulli rng corroboration then
                 [
                   ( at +. 0.5,
                     Concrete
                       (Win_record
                          { win = m; guilty = false; blame = 0.1; drop_time = at +. 0.5 }) );
                 ]
               else []
             in
             let put =
               ( at +. 1.,
                 Concrete
                   (Dht_put
                      {
                        from_node = m;
                        accuser = m;
                        accused = shielded;
                        drop_time = at +. 1.;
                        copies = 1;
                      }) )
             in
             (guilty :: shield) @ [ put ])
      |> fun ops -> ops @ [ (start +. duration, Expire_at { win = shielded; at = start +. duration }) ]
  | Chaos.Lying_reporters { reporters; victim; corroboration; start; duration } ->
      (* Framing votes crowd the victim's window; the victim archives its
         own exculpatory evidence and defends once the campaign ends. *)
      let victim = wrap victim in
      let frames =
        Array.to_list reporters
        |> List.concat_map (fun r ->
               let r = wrap r in
               let at = start +. Prng.float rng (Float.max duration 1.) in
               let vote =
                 ( at,
                   Concrete
                     (Win_record
                        {
                          win = victim;
                          guilty = true;
                          blame = 0.5 +. Prng.float rng 0.5;
                          drop_time = at;
                        }) )
               in
               if Prng.bernoulli rng corroboration then
                 [
                   vote;
                   ( at +. 0.5,
                     Concrete
                       (Dht_put
                          {
                            from_node = r;
                            accuser = r;
                            accused = victim;
                            drop_time = at +. 0.5;
                            copies = 1;
                          }) );
                 ]
               else [ vote ])
      in
      frames
      @ [
          (start, Concrete (Arch_record { owner = victim; accused = victim; drop_time = start }));
          (start +. duration, Defend_at { owner = victim; at = start +. duration });
        ]
  | Chaos.Eclipse { attackers; victim; start; duration } ->
      (* Isolating a node looks like replica loss bracketed by churn, with
         the attackers hammering reads to map the victim's state. *)
      let victim = wrap victim in
      let storms =
        Array.to_list attackers
        |> List.map (fun a ->
               let at = start +. Prng.float rng (Float.max duration 1.) in
               (at, Concrete (Dht_get { from_node = wrap a; accused = victim })))
      in
      [
        (start, Concrete (Dht_crash { node = victim }));
        (start +. (0.5 *. duration), Concrete (Dht_drop_replica { node = victim }));
        (start +. duration, Concrete (Dht_revive { node = victim }));
      ]
      @ storms
  | Chaos.Biased_sampling { samplers; favored; start; duration } ->
      (* Biased samplers over-read the favored node's records. *)
      Array.to_list samplers
      |> List.concat_map (fun s ->
             let s = wrap s in
             List.init 3 (fun i ->
                 let at = start +. (float_of_int (i + 1) /. 4. *. Float.max duration 1.) in
                 (at, Concrete (Dht_get { from_node = s; accused = wrap favored }))))

(* Second pass: walk the timed stream in order, tracking what each window
   and archive holds, and resolve the symbolic operations. Half the
   expiries land exactly on a recorded drop time (the inclusive-keep
   boundary); defenses probe exactly [±delta] as well as just outside it. *)
let resolve rng ~nodes protos =
  let delta = Blame.paper_config.Blame.delta in
  let window_times = Array.make nodes [] in
  let archives = Array.make nodes [] in
  List.map
    (fun proto ->
      match proto with
      | Concrete op ->
          (match op with
          | Win_record { win; drop_time; _ } ->
              window_times.(win) <- drop_time :: window_times.(win)
          | Arch_record { owner; accused; drop_time } ->
              archives.(owner) <- (accused, drop_time) :: archives.(owner)
          | _ -> ());
          op
      | Expire_at { win; at } ->
          let before =
            match window_times.(win) with
            | _ :: _ as times when Prng.bernoulli rng 0.5 ->
                Prng.choose rng (Array.of_list times)
            | _ -> at -. Prng.float rng 600.
          in
          Win_expire { win; before }
      | Defend_at { owner; at } -> (
          match archives.(owner) with
          | [] ->
              let accuser = (owner + 1 + Prng.int rng (nodes - 1)) mod nodes in
              Arch_defend { owner; accuser; drop_time = at }
          | entries ->
              let accused, recorded_at = Prng.choose rng (Array.of_list entries) in
              let offset =
                Prng.choose rng [| -.delta; 0.0; delta; delta +. 1.0; -.delta -. 1.0 |]
              in
              Arch_defend { owner; accuser = accused; drop_time = recorded_at +. offset }))
    protos

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
    List.concat_map
      (fun tick ->
        let at = 30. +. (60. *. float_of_int tick) in
        List.map (fun proto -> (at, proto)) (baseline_tick rng ~nodes ~at))
      (List.init (int_of_float (horizon /. 60.)) (fun i -> i))
  in
  let timed =
    List.stable_sort
      (fun (a, _) (b, _) -> Float.compare a b)
      (baseline @ from_faults @ from_adversaries)
  in
  let ops = resolve rng ~nodes (List.map snd timed) in
  { seed; nodes; window_size; m; replication; ops }

(* ---------- JSON ---------- *)

let encode_op op =
  let open Json in
  match op with
  | Win_record { win; guilty; blame; drop_time } ->
      Obj
        [
          ("op", String "win_record");
          ("win", Int win);
          ("guilty", Bool guilty);
          ("blame", Float blame);
          ("drop_time", Float drop_time);
        ]
  | Win_expire { win; before } ->
      Obj [ ("op", String "win_expire"); ("win", Int win); ("before", Float before) ]
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
  | Arch_record { owner; accused; drop_time } ->
      Obj
        [
          ("op", String "arch_record");
          ("owner", Int owner);
          ("accused", Int accused);
          ("drop_time", Float drop_time);
        ]
  | Arch_defend { owner; accuser; drop_time } ->
      Obj
        [
          ("op", String "arch_defend");
          ("owner", Int owner);
          ("accuser", Int accuser);
          ("drop_time", Float drop_time);
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

let ( let* ) r f = Result.bind r f

let decode_op json =
  match Option.bind (Json.member "op" json) Json.string_value with
  | None -> Error "operation without an \"op\" tag"
  | Some "win_record" ->
      let* win = field_int json "win" in
      let* guilty = field_bool json "guilty" in
      let* blame = field_float json "blame" in
      let* drop_time = field_float json "drop_time" in
      Ok (Win_record { win; guilty; blame; drop_time })
  | Some "win_expire" ->
      let* win = field_int json "win" in
      let* before = field_float json "before" in
      Ok (Win_expire { win; before })
  | Some "dht_put" ->
      let* from_node = field_int json "from" in
      let* accuser = field_int json "accuser" in
      let* accused = field_int json "accused" in
      let* drop_time = field_float json "drop_time" in
      let* copies = field_int json "copies" in
      Ok (Dht_put { from_node; accuser; accused; drop_time; copies })
  | Some "dht_get" ->
      let* from_node = field_int json "from" in
      let* accused = field_int json "accused" in
      Ok (Dht_get { from_node; accused })
  | Some "dht_crash" ->
      let* node = field_int json "node" in
      Ok (Dht_crash { node })
  | Some "dht_revive" ->
      let* node = field_int json "node" in
      Ok (Dht_revive { node })
  | Some "dht_drop_replica" ->
      let* node = field_int json "node" in
      Ok (Dht_drop_replica { node })
  | Some "arch_record" ->
      let* owner = field_int json "owner" in
      let* accused = field_int json "accused" in
      let* drop_time = field_float json "drop_time" in
      Ok (Arch_record { owner; accused; drop_time })
  | Some "arch_defend" ->
      let* owner = field_int json "owner" in
      let* accuser = field_int json "accuser" in
      let* drop_time = field_float json "drop_time" in
      Ok (Arch_defend { owner; accuser; drop_time })
  | Some other -> Error (Printf.sprintf "unknown operation %S" other)

let rec decode_ops acc = function
  | [] -> Ok (List.rev acc)
  | json :: rest -> (
      match decode_op json with
      | Ok op -> decode_ops (op :: acc) rest
      | Error message -> Error message)

let decode json =
  let* seed = field_int json "seed" in
  let* nodes = field_int json "nodes" in
  let* window_size = field_int json "window_size" in
  let* m = field_int json "m" in
  let* replication = field_int json "replication" in
  let* op_list =
    match Option.bind (Json.member "ops" json) Json.to_list with
    | Some items -> Ok items
    | None -> Error "missing or non-list field \"ops\""
  in
  let* ops = decode_ops [] op_list in
  if nodes < 2 then Error "schedule needs at least two nodes"
  else if window_size < 1 then Error "window_size must be positive"
  else if replication < 1 then Error "replication must be positive"
  else Ok { seed; nodes; window_size; m; replication; ops }
