(* MINC's empirical subtree-ack rates computed the quadratic way, kept as a
   reference for [Minc.infer]'s single bottom-up sweep: for every round and
   every logical node, scan the node's descendant leaves for an ack. The
   rest of an estimate is a function of these rates, so equal rates mean
   equal estimates. The file uses no test library, so the bench can copy
   it. *)

module Logical_tree = Concilium_tomography.Logical_tree

let gamma logical ~acked =
  let descendants = Probing_oracle.descendant_leaves logical in
  let hits = Array.make (Logical_tree.node_count logical) 0 in
  Array.iter
    (fun vector ->
      Array.iteri
        (fun node leaves ->
          if Array.exists (fun leaf_index -> vector.(leaf_index)) leaves then
            hits.(node) <- hits.(node) + 1)
        descendants)
    acked;
  let rounds = float_of_int (Array.length acked) in
  Array.map (fun h -> float_of_int h /. rounds) hits
