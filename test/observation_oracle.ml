(* A per-link list store, the reference for [Observation]'s rounds: every
   window query scans the link's whole history, and pruning filters each
   observation on its own time. Fed a round's votes in insertion order
   (its tree votes, then its forged reports in order), the round store
   must answer every window at or above its pruned horizon exactly as this
   one does, in the same order. *)

module Observation = Concilium_tomography.Observation

(* Per-link lists, newest first; queries reverse once. *)
type t = { table : (int, Observation.observation list ref) Hashtbl.t; mutable count : int }

let create () = { table = Hashtbl.create 16; count = 0 }

let record t (observation : Observation.observation) =
  (match Hashtbl.find_opt t.table observation.link with
  | Some cell -> cell := observation :: !cell
  | None -> Hashtbl.replace t.table observation.link (ref [ observation ]));
  t.count <- t.count + 1

let count t = t.count

let on_link t ~link ~lo ~hi =
  match Hashtbl.find_opt t.table link with
  | None -> []
  | Some cell ->
      List.rev
        (List.filter
           (fun (obs : Observation.observation) -> obs.time >= lo && obs.time <= hi)
           !cell)

let prune_before t horizon =
  (* Each cell is filtered independently; the visit order cannot change the
     outcome.  lint: allow hashtbl-order *)
  Hashtbl.iter
    (fun _ cell ->
      let kept = List.filter (fun (obs : Observation.observation) -> obs.time >= horizon) !cell in
      t.count <- t.count - (List.length !cell - List.length kept);
      cell := kept)
    t.table
