(* Message outcomes: the diagnosis rule, the outcome contract and the
   outcome digest.

   The diagnosis rule is the ground-truth rule of bin/concilium_sim.ml: an
   undelivered message's diagnosis misses when it is missing, degraded
   (Insufficient_evidence, or no final target), or names the wrong party. *)

module Protocol = Concilium_core.Protocol
module Stewardship = Concilium_core.Stewardship
module Hashing = Concilium_util.Hashing

type verdict = Delivered | Correct | Wrong | Undiagnosed

let classify (outcome : Protocol.outcome) =
  if outcome.Protocol.delivered then Delivered
  else
    match outcome.Protocol.diagnosis with
    | None
    | Some (Protocol.Diagnosed { Stewardship.final = None; _ })
    | Some (Protocol.Insufficient_evidence _) ->
        Undiagnosed
    | Some (Protocol.Diagnosed { Stewardship.final = Some target; _ }) -> (
        match (target, outcome.Protocol.drop) with
        | Stewardship.Next_hop v, Some (Protocol.Dropped_by_overlay d) when v = d -> Correct
        | Stewardship.Network, Some (Protocol.Dropped_on_ip_link _ | Protocol.Ack_lost_on_link _) ->
            Correct
        | (Stewardship.Next_hop v | Stewardship.Offline v), Some (Protocol.Hop_offline d) when v = d
          ->
            Correct
        | _ -> Wrong)

let missed = function Wrong | Undiagnosed -> true | Delivered | Correct -> false

(* The outcome contract of Protocol.send_message: a delivered message
   carries neither a drop nor a diagnosis, an undelivered one carries its
   diagnosis. A message that breaks it is a failed operation. *)
let well_formed (outcome : Protocol.outcome) =
  if outcome.Protocol.delivered then outcome.Protocol.drop = None && outcome.Protocol.diagnosis = None
  else outcome.Protocol.diagnosis <> None

(* The node a completed diagnosis names, if any. *)
let named_node (outcome : Protocol.outcome) =
  match outcome.Protocol.diagnosis with
  | Some (Protocol.Diagnosed { Stewardship.final = Some (Stewardship.Next_hop v | Stewardship.Offline v); _ })
    ->
      Some v
  | Some (Protocol.Diagnosed { Stewardship.final = Some Stewardship.Network | None; _ })
  | Some (Protocol.Insufficient_evidence _)
  | None ->
      None

let drop_label = function
  | None -> "none"
  | Some (Protocol.Dropped_by_overlay v) -> Printf.sprintf "overlay:%d" v
  | Some (Protocol.Dropped_on_ip_link l) -> Printf.sprintf "ip_link:%d" l
  | Some (Protocol.Ack_lost_on_link l) -> Printf.sprintf "ack_link:%d" l
  | Some (Protocol.Hop_offline v) -> Printf.sprintf "offline:%d" v

let target_label (outcome : Protocol.outcome) =
  match outcome.Protocol.diagnosis with
  | None -> "none"
  | Some (Protocol.Insufficient_evidence _) -> "insufficient"
  | Some (Protocol.Diagnosed { Stewardship.final = None; _ }) -> "no_target"
  | Some (Protocol.Diagnosed { Stewardship.final = Some Stewardship.Network; _ }) -> "network"
  | Some (Protocol.Diagnosed { Stewardship.final = Some (Stewardship.Next_hop v); _ }) ->
      Printf.sprintf "node:%d" v
  | Some (Protocol.Diagnosed { Stewardship.final = Some (Stewardship.Offline v); _ }) ->
      Printf.sprintf "offline:%d" v

(* Per message: id, delivered flag, drop and diagnosis target. *)
let line (outcome : Protocol.outcome) =
  Printf.sprintf "%s|%d|%s|%s" outcome.Protocol.message_id
    (if outcome.Protocol.delivered then 1 else 0)
    (drop_label outcome.Protocol.drop) (target_label outcome)

(* An order-sensitive FNV fold over transcript lines, with a checkpoint
   every [every] lines so runs of different lengths can be compared on
   their common prefix. *)
module Digest = struct
  type t = { every : int; mutable hash : int64; mutable lines : int; mutable checkpoints : (int * int64) list }

  let create ?(every = 256) () = { every; hash = Hashing.fnv1a "perfbench"; lines = 0; checkpoints = [] }

  (* Closing lines of a run ([~checkpoint:false]) change the final value
     but never a checkpoint, since another run may stop elsewhere. *)
  let add ?(checkpoint = true) t line =
    t.hash <- Hashing.fnv1a_int t.hash (Hashing.fnv1a line);
    t.lines <- t.lines + 1;
    if checkpoint && t.lines mod t.every = 0 then t.checkpoints <- (t.lines, t.hash) :: t.checkpoints

  let value t = t.hash
  let lines t = t.lines

  (* Checkpoints in ascending line order. *)
  let checkpoints t = List.rev t.checkpoints
end
