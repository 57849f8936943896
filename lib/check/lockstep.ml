module Id = Concilium_overlay.Id
module Pastry = Concilium_overlay.Pastry
module Pki = Concilium_crypto.Pki
module Accusation = Concilium_core.Accusation
module Commitment = Concilium_core.Commitment
module Blame = Concilium_core.Blame
module Verdict_window = Concilium_core.Verdict_window
module Dht = Concilium_core.Dht
module Stewardship = Concilium_core.Stewardship
module Prng = Concilium_util.Prng

type mutation =
  | Window_accuse_strict
  | Dht_ignore_crashes
  | Stewardship_trust_withheld
  | Dht_ignore_replica_loss
  | Dht_stale_overwrite

let mutation_name = function
  | Window_accuse_strict -> "window-accuse-strict"
  | Dht_ignore_crashes -> "dht-ignore-crashes"
  | Stewardship_trust_withheld -> "stewardship-trust-withheld"
  | Dht_ignore_replica_loss -> "dht-ignore-replica-loss"
  | Dht_stale_overwrite -> "dht-stale-overwrite"

let all_mutations =
  [
    Window_accuse_strict;
    Dht_ignore_crashes;
    Stewardship_trust_withheld;
    Dht_ignore_replica_loss;
    Dht_stale_overwrite;
  ]

let mutation_of_name name =
  List.find_opt (fun m -> String.equal (mutation_name m) name) all_mutations

type divergence = { op_index : int; component : string; detail : string }

let pp_divergence fmt d =
  Format.fprintf fmt "op %d, %s: %s" d.op_index d.component d.detail

(* ---------- World ---------- *)

type principal = { id : Id.t; key : Pki.public_key; secret : Pki.secret_key }

type world = {
  nodes : int;
  m : int;
  principals : principal array;
  impl_windows : float Verdict_window.t array; (* evidence: its drop time *)
  model_windows : Model.Window.t array;
  impl_dht : Dht.t;
  model_store : Model.Store.t;
  dead : bool array;
  accusations : (string, Accusation.t) Hashtbl.t;
}

(* [impl_m] lets the accuse-strict mutation perturb the implementation
   side's escalation threshold while the model keeps the real [m]. *)
let build_world (schedule : Schedule.t) ~impl_m =
  let nodes = schedule.Schedule.nodes in
  let rng = Prng.of_seed (Int64.of_int (0x5eed + schedule.Schedule.seed)) in
  let ids = Array.init nodes (fun _ -> Id.random rng) in
  let pki = Pki.create ~seed:(Int64.of_int (0xca + schedule.Schedule.seed)) in
  let principals =
    Array.init nodes (fun i ->
        let cert, secret =
          Pki.issue pki ~address:(Printf.sprintf "node-%d" i) ~node_id:(Id.to_hex ids.(i))
        in
        { id = ids.(i); key = cert.Pki.subject_key; secret })
  in
  let pastry = Pastry.build ~leaf_half_size:4 ids in
  {
    nodes;
    m = schedule.Schedule.m;
    principals;
    impl_windows =
      Array.init nodes (fun _ ->
          Verdict_window.create ~window_size:schedule.Schedule.window_size ~m:impl_m);
    model_windows =
      Array.init nodes (fun _ ->
          Model.Window.create ~window_size:schedule.Schedule.window_size);
    impl_dht = Dht.create ~pastry ~replication:schedule.Schedule.replication;
    model_store = Model.Store.create ~pastry ~replication:schedule.Schedule.replication;
    dead = Array.make nodes false;
    accusations = Hashtbl.create 64;
  }

(* Accusations are the data flowing through both sides: built once per
   (accuser, accused, drop time) triple and shared, so the comparison
   exercises the state machinery, not signature plumbing. Two probers
   vouch "up" for every path link, putting the blame (0.9, Equation 2)
   above the paper threshold. *)
let accusation_for world ~accuser ~accused ~drop_time =
  let cache_key = Printf.sprintf "%d|%d|%.17g" accuser accused drop_time in
  match Hashtbl.find_opt world.accusations cache_key with
  | Some accusation -> accusation
  | None ->
      let a = world.principals.(accuser) in
      let b = world.principals.(accused) in
      let destination = world.principals.((accused + 1) mod world.nodes) in
      let probers =
        List.filteri (fun i _ -> i <> accuser && i <> accused)
          (Array.to_list (Array.mapi (fun i p -> (i, p)) world.principals))
      in
      let p1, p2 =
        match probers with
        | (_, p1) :: (_, p2) :: _ -> (p1, p2)
        | _ -> invalid_arg "Lockstep.accusation_for: need at least four nodes"
      in
      let vote link (p : principal) =
        Accusation.make_vote ~prober:p.id ~secret:p.secret ~public:p.key ~link ~time:drop_time
          ~up:true
      in
      let commitment =
        Commitment.issue ~forwarder:b.id ~secret:b.secret ~public:b.key ~sender:a.id
          ~destination:destination.id ~message_id:cache_key ~now:(drop_time -. 1.)
      in
      let evidence =
        {
          Accusation.path_links = [| 4; 9 |];
          link_votes =
            [
              { Accusation.link = 4; votes = [ vote 4 p1; vote 4 p2 ] };
              { Accusation.link = 9; votes = [ vote 9 p1 ] };
            ];
          drop_time;
          commitment;
        }
      in
      let accusation =
        Accusation.make ~accuser:a.id ~secret:a.secret ~public:a.key ~accused:b.id
          ~config:Blame.paper_config ~evidence ~supporting:[] ~now:(drop_time +. 1.)
      in
      Hashtbl.add world.accusations cache_key accusation;
      accusation

(* ---------- Comparisons ---------- *)

let float_list_to_string times =
  String.concat "," (List.map (fun t -> Printf.sprintf "%.17g" t) times)

let check_window world ~win =
  let impl = world.impl_windows.(win) in
  let model = world.model_windows.(win) in
  let impl_times = List.map snd (Verdict_window.entries impl) in
  let model_times = Model.Window.drop_times model in
  let impl_supporting = Verdict_window.supporting impl in
  let model_supporting = Model.Window.supporting model ~m:world.m in
  if Verdict_window.length impl <> Model.Window.length model then
    Some
      (Printf.sprintf "window %d length: impl=%d model=%d" win (Verdict_window.length impl)
         (Model.Window.length model))
  else if Verdict_window.guilty_count impl <> Model.Window.guilty_count model then
    Some
      (Printf.sprintf "window %d guilty_count: impl=%d model=%d" win
         (Verdict_window.guilty_count impl)
         (Model.Window.guilty_count model))
  else if Verdict_window.should_accuse impl <> Model.Window.should_accuse model ~m:world.m then
    Some
      (Printf.sprintf "window %d should_accuse(m=%d): impl=%b model=%b" win world.m
         (Verdict_window.should_accuse impl)
         (Model.Window.should_accuse model ~m:world.m))
  else if not (List.equal Float.equal impl_times model_times) then
    Some
      (Printf.sprintf "window %d drop_times: impl=[%s] model=[%s]" win
         (float_list_to_string impl_times)
         (float_list_to_string model_times))
  else if not (List.equal Float.equal impl_supporting model_supporting) then
    Some
      (Printf.sprintf "window %d supporting: impl=[%s] model=[%s]" win
         (float_list_to_string impl_supporting)
         (float_list_to_string model_supporting))
  else None

let check_stores world =
  let mismatch = ref None in
  for node = world.nodes - 1 downto 0 do
    let impl = Dht.stored_count world.impl_dht ~node in
    let model = Model.Store.stored_count world.model_store ~node in
    if impl <> model then
      mismatch :=
        Some (Printf.sprintf "stored_count node %d: impl=%d model=%d" node impl model)
  done;
  match !mismatch with
  | Some _ as d -> d
  | None ->
      let impl = Dht.total_records world.impl_dht in
      let model = Model.Store.total_records world.model_store in
      if impl <> model then
        Some (Printf.sprintf "total_records: impl=%d model=%d" impl model)
      else None

let target_to_string = function
  | None -> "none"
  | Some (Stewardship.Next_hop v) -> Printf.sprintf "next_hop %d" v
  | Some Stewardship.Network -> "network"
  | Some (Stewardship.Offline v) -> Printf.sprintf "offline %d" v

let int_list_to_string l = String.concat "," (List.map string_of_int l)

(* One episode's judgments as [Protocol] builds them: position [i] holds
   what the hop at [route.(i)] judged of the hop at [route.(i + 1)]. *)
let judgments_of ~route judgments =
  Array.of_list
    (List.mapi
       (fun i judgment ->
         Option.map
           (fun { Schedule.target; pushed } ->
             let next = route.(i + 1) in
             {
               Stewardship.target =
                 (match target with
                 | Schedule.Blame_next_hop -> Stewardship.Next_hop next
                 | Schedule.Blame_network -> Stewardship.Network
                 | Schedule.Next_hop_offline -> Stewardship.Offline next);
               pushed;
             })
           judgment)
       judgments)

(* Both sides walk the same positional array; the implementation side is
   fed as protocol.ml feeds it. *)
let check_steward ~mutation ~route judgments =
  let impl_judgments =
    match mutation with
    | Some Stewardship_trust_withheld ->
        Array.map
          (Option.map (fun (judgment : Stewardship.judgment) ->
               { judgment with Stewardship.pushed = true }))
          judgments
    | _ -> judgments
  in
  let impl = Stewardship.resolve impl_judgments in
  let model = Model.Steward.resolve ~route judgments in
  if impl.Stewardship.final <> model.Model.Steward.final then
    Some
      (Printf.sprintf "resolve(route=%s) final: impl=%s model=%s"
         (int_list_to_string (Array.to_list route))
         (target_to_string impl.Stewardship.final)
         (target_to_string model.Model.Steward.final))
  else if not (List.equal Int.equal impl.Stewardship.exonerated model.Model.Steward.exonerated)
  then
    Some
      (Printf.sprintf "resolve(route=%s) exonerated: impl=[%s] model=[%s]"
         (int_list_to_string (Array.to_list route))
         (int_list_to_string impl.Stewardship.exonerated)
         (int_list_to_string model.Model.Steward.exonerated))
  else None

(* ---------- Execution ---------- *)

let apply_op world ~mutation op =
  let model_alive node = not world.dead.(node) in
  let impl_alive =
    match mutation with
    | Some Dht_ignore_crashes -> fun (_ : int) -> true
    | _ -> model_alive
  in
  match op with
  | Schedule.Win_record { win; guilty; drop_time } ->
      let verdict = if guilty then Blame.Guilty else Blame.Innocent in
      ignore
        (Verdict_window.record world.impl_windows.(win) verdict ~drop_time (fun () -> drop_time)
          : float option);
      Model.Window.record world.model_windows.(win)
        { Model.Window.guilty; drop_time };
      (match check_window world ~win with
      | Some detail -> Some ("window", detail)
      | None -> None)
  | Schedule.Dht_put { from_node; accuser; accused; drop_time; copies } ->
      let accusation = accusation_for world ~accuser ~accused ~drop_time in
      let accused_key = world.principals.(accused).key in
      let hops = ref 0 in
      let supersedes =
        match mutation with
        | Some Dht_stale_overwrite -> fun ~incoming:_ ~stored:_ -> true
        | _ -> Dht.newest_wins
      in
      let impl_report =
        Dht.put_with ~supersedes world.impl_dht ~from:from_node ~alive:impl_alive ~copies
          ~accused_key accusation ~hops
      in
      let model_report =
        Model.Store.put world.model_store ~from:from_node ~alive:model_alive ~copies
          ~accused_key accusation
      in
      if impl_report.Dht.replicas_written <> model_report.Model.Store.replicas_written then
        Some
          ( "dht",
            Printf.sprintf "put replicas_written: impl=%d model=%d"
              impl_report.Dht.replicas_written model_report.Model.Store.replicas_written )
      else if impl_report.Dht.put_failed_over <> model_report.Model.Store.put_failed_over
      then
        Some
          ( "dht",
            Printf.sprintf "put failed_over: impl=%b model=%b"
              impl_report.Dht.put_failed_over model_report.Model.Store.put_failed_over )
      else if !hops <> model_report.Model.Store.hops then
        Some
          ( "dht",
            Printf.sprintf "put hops: impl=%d model=%d" !hops model_report.Model.Store.hops
          )
      else (
        match check_stores world with
        | Some detail -> Some ("dht", detail)
        | None -> None)
  | Schedule.Dht_get { from_node; accused } ->
      let accused_key = world.principals.(accused).key in
      let hops = ref 0 in
      let impl_report =
        Dht.get world.impl_dht ~from:from_node ~alive:impl_alive ~accused_key ~hops ()
      in
      let model_report =
        Model.Store.get world.model_store ~from:from_node ~alive:model_alive ~accused_key
      in
      let impl_records =
        List.map
          (fun a -> (Model.Store.pair_key a, Model.Store.drop_time a))
          impl_report.Dht.accusations
      in
      let same (pair, time) (pair', time') = String.equal pair pair' && Float.equal time time' in
      let records_to_string records =
        String.concat ";" (List.map (fun (pair, time) -> Printf.sprintf "%s@%.17g" pair time) records)
      in
      if not (List.equal same impl_records model_report.Model.Store.records) then
        Some
          ( "dht",
            Printf.sprintf "get records: impl=[%s] model=[%s]"
              (records_to_string impl_records)
              (records_to_string model_report.Model.Store.records) )
      else if impl_report.Dht.replicas_read <> model_report.Model.Store.replicas_read then
        Some
          ( "dht",
            Printf.sprintf "get replicas_read: impl=%d model=%d"
              impl_report.Dht.replicas_read model_report.Model.Store.replicas_read )
      else if impl_report.Dht.get_failed_over <> model_report.Model.Store.get_failed_over
      then
        Some
          ( "dht",
            Printf.sprintf "get failed_over: impl=%b model=%b"
              impl_report.Dht.get_failed_over model_report.Model.Store.get_failed_over )
      else if !hops <> model_report.Model.Store.hops then
        Some
          ( "dht",
            Printf.sprintf "get hops: impl=%d model=%d" !hops model_report.Model.Store.hops
          )
      else None
  | Schedule.Dht_crash { node } ->
      world.dead.(node) <- true;
      None
  | Schedule.Dht_revive { node } ->
      world.dead.(node) <- false;
      None
  | Schedule.Dht_drop_replica { node } ->
      (match mutation with
      | Some Dht_ignore_replica_loss -> ()
      | _ -> Dht.drop_replica world.impl_dht ~node);
      Model.Store.drop_replica world.model_store ~node;
      (match check_stores world with
      | Some detail -> Some ("dht", detail)
      | None -> None)
  | Schedule.Steward_resolve { route; judgments } ->
      let route = Array.of_list route in
      Option.map
        (fun detail -> ("stewardship", detail))
        (check_steward ~mutation ~route (judgments_of ~route judgments))

let final_sweep world =
  let rec first_window win =
    if win >= world.nodes then None
    else
      match check_window world ~win with
      | Some detail -> Some detail
      | None -> first_window (win + 1)
  in
  match first_window 0 with Some detail -> Some detail | None -> check_stores world

let run ?mutation (schedule : Schedule.t) =
  let impl_m =
    match mutation with
    | Some Window_accuse_strict -> schedule.Schedule.m + 1
    | _ -> schedule.Schedule.m
  in
  let world = build_world schedule ~impl_m in
  let rec step index ops =
    match ops with
    | [] -> (
        match final_sweep world with
        | Some detail -> Some { op_index = index; component = "final"; detail }
        | None -> None)
    | op :: rest -> (
        match apply_op world ~mutation op with
        | Some (component, detail) -> Some { op_index = index; component; detail }
        | None -> step (index + 1) rest)
  in
  step 0 schedule.Schedule.ops
