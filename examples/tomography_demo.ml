(* Striped-unicast tomography end to end (paper Section 3.2).

   Take one host's real probe tree from a generated world, give a few links
   known loss rates, run heavyweight striped probing, and compare the MINC
   maximum-likelihood estimates with the ground truth.

       dune exec examples/tomography_demo.exe *)

module World = Concilium_core.World
module Tree = Concilium_tomography.Tree
module Logical_tree = Concilium_tomography.Logical_tree
module Probing = Concilium_tomography.Probing
module Minc = Concilium_tomography.Minc
module Prng = Concilium_util.Prng

let () =
  let world = World.build (World.tiny_config ~seed:2025L) in
  let host = 0 in
  let tree = world.World.trees.(host) in
  let logical = Logical_tree.of_tree tree in
  Printf.printf "host %d probes a tree of %d routers, %d leaves, %d logical links\n" host
    (Tree.node_count tree)
    (Tree.leaf_count tree)
    (Logical_tree.node_count logical - 1);

  (* Ground truth: a couple of specific logical chains are lossy. *)
  let rng = Prng.of_seed 3L in
  let lossy_chain = 1 + Prng.int rng (Logical_tree.node_count logical - 1) in
  let true_loss = Hashtbl.create 16 in
  Array.iter
    (fun link -> Hashtbl.replace true_loss link 0.25)
    (Logical_tree.chain logical lossy_chain);
  let loss_of_link link =
    match Hashtbl.find_opt true_loss link with Some l -> l | None -> 0.005
  in

  let rounds = Probing.probe_rounds ~rng ~loss_of_link ~tree ~count:2000 () in
  let estimate = Minc.infer_from_rounds logical rounds in
  print_endline "\nper-logical-link loss (inferred vs true):";
  for node = 1 to Logical_tree.node_count logical - 1 do
    let chain = Logical_tree.chain logical node in
    let true_chain_loss =
      1. -. Array.fold_left (fun acc link -> acc *. (1. -. loss_of_link link)) 1. chain
    in
    Printf.printf "  logical link above node %2d (%d physical): inferred %5.1f%%  true %5.1f%%%s\n"
      node (Array.length chain)
      (100. *. Minc.link_loss estimate node)
      (100. *. true_chain_loss)
      (if node = lossy_chain then "   <-- injected fault" else "")
  done
