(* The probe kernel as it was before leaf paths were stored flat, kept as a
   reference for [Probing]: a round keeps its link fates in a table keyed by
   link id, rebuilds each leaf's path by walking parent links, and draws a
   link's fate at its first visit, a leaf stopping at its first dropped
   link; classifying a round scans each logical node's descendant leaves.
   [Probing] must return the same rounds and verdicts and leave the
   generator in the same state. The file uses no test library, so the
   bench can copy it. *)

module Prng = Concilium_util.Prng
module Tree = Concilium_tomography.Tree
module Logical_tree = Concilium_tomography.Logical_tree
module Probing = Concilium_tomography.Probing

(* Physical links from the root down to a tree node, in order. *)
let path_links_to tree node =
  let rec walk node acc =
    if node = 0 then acc else walk (Tree.parent tree node) (Tree.parent_link tree node :: acc)
  in
  Array.of_list (walk node [])

let probe_round ~rng ~loss_of_link ~tree ~behavior =
  let leaf_count = Tree.leaf_count tree in
  let link_fate = Hashtbl.create 64 in
  let link_passes link =
    match Hashtbl.find_opt link_fate link with
    | Some pass -> pass
    | None ->
        let pass = not (Prng.bernoulli rng (loss_of_link link)) in
        Hashtbl.replace link_fate link pass;
        pass
  in
  let received = Array.make leaf_count false in
  let acked = Array.make leaf_count false in
  for leaf_index = 0 to leaf_count - 1 do
    let got_it = Array.for_all link_passes (path_links_to tree (Tree.leaf tree leaf_index)) in
    received.(leaf_index) <- got_it;
    match behavior leaf_index with
    | Probing.Honest -> acked.(leaf_index) <- got_it
    | Probing.Suppress_acks p -> acked.(leaf_index) <- got_it && not (Prng.bernoulli rng p)
  done;
  { Probing.received; acked }

(* Per logical node, the sorted indices of the leaves at or below it, found
   by walking up from every leaf. *)
let descendant_leaves logical =
  let sets = Array.make (Logical_tree.node_count logical) [] in
  for leaf_index = 0 to Logical_tree.leaf_count logical - 1 do
    let node = ref (Logical_tree.leaf logical leaf_index) in
    while !node >= 0 do
      sets.(!node) <- leaf_index :: sets.(!node);
      node := Logical_tree.parent logical !node
    done
  done;
  Array.map (fun set -> Array.of_list (List.sort_uniq Int.compare set)) sets

let classify_round logical acked =
  let descendants = descendant_leaves logical in
  let subtree_acked =
    Array.map (Array.exists (fun leaf_index -> acked.(leaf_index))) descendants
  in
  Array.init (Logical_tree.node_count logical) (fun node ->
      if node = 0 then Probing.Indeterminate
      else if subtree_acked.(node) then Probing.Probed_up
      else if subtree_acked.(Logical_tree.parent logical node) then Probing.Probed_down
      else Probing.Indeterminate)
