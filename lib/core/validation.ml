module Id = Concilium_overlay.Id
module Leaf_set = Concilium_overlay.Leaf_set
module Density_test = Concilium_overlay.Density_test
module Freshness = Concilium_overlay.Freshness
module Routing_table = Concilium_overlay.Routing_table
module Snapshot = Concilium_tomography.Snapshot
module Signed = Concilium_crypto.Signed
module Pki = Concilium_crypto.Pki

type advertisement = {
  snapshot : Snapshot.t;
  jump_table_occupancy : int;
  leaf_set : Leaf_set.t;
}

(* Slack of Castro's leaf-set spacing test, and the seconds before a
   freshness stamp goes stale. *)
let gamma_leaf = 1.5
let max_stamp_age = 600.

type failure =
  | Bad_snapshot_signature
  | Stale_or_invalid_stamp of Id.t
  | Sparse_jump_table of { local : int; advertised : int }
  | Sparse_leaf_set of { local_spacing : float; advertised_spacing : float }

type local_view = { own_jump_occupancy : int; own_leaf_set : Leaf_set.t }

let check pki ~now ~gamma_jump ~local advertisement =
  let failures = ref [] in
  let push f = failures := f :: !failures in
  if not (Snapshot.verify pki advertisement.snapshot) then push Bad_snapshot_signature;
  let body = Signed.payload advertisement.snapshot in
  List.iter
    (fun summary ->
      let peer = summary.Snapshot.peer in
      if
        not
          (Freshness.validate pki ~now ~max_age:max_stamp_age ~expected_holder:peer
             summary.Snapshot.freshness)
      then push (Stale_or_invalid_stamp peer))
    body.Snapshot.summaries;
  (match
     Density_test.check ~gamma:gamma_jump ~local_occupancy:local.own_jump_occupancy
       ~peer_occupancy:advertisement.jump_table_occupancy
   with
  | `Suspicious ->
      push
        (Sparse_jump_table
           { local = local.own_jump_occupancy; advertised = advertisement.jump_table_occupancy })
  | `Acceptable -> ());
  (match
     Leaf_set.spacing_check ~gamma:gamma_leaf ~local:local.own_leaf_set
       ~peer:advertisement.leaf_set
   with
  | `Suspicious ->
      push
        (Sparse_leaf_set
           {
             local_spacing = Leaf_set.mean_spacing local.own_leaf_set;
             advertised_spacing = Leaf_set.mean_spacing advertisement.leaf_set;
           })
  | `Acceptable -> ());
  List.rev !failures

let pp_failure fmt = function
  | Bad_snapshot_signature -> Format.pp_print_string fmt "snapshot signature invalid"
  | Stale_or_invalid_stamp id ->
      Format.fprintf fmt "stale or invalid freshness stamp for %a" Id.pp id
  | Sparse_jump_table { local; advertised } ->
      Format.fprintf fmt "jump table too sparse (advertised %d vs local %d of %d slots)"
        advertised local
        (Routing_table.rows * Routing_table.columns)
  | Sparse_leaf_set { local_spacing; advertised_spacing } ->
      Format.fprintf fmt "leaf set too sparse (spacing %.3g vs local %.3g)" advertised_spacing
        local_spacing
