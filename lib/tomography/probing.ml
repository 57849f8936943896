module Prng = Concilium_util.Prng

type leaf_behavior = Honest | Suppress_acks of float

type round = { received : bool array; acked : bool array }

(* One Bernoulli draw per physical link per round: the striped packets
   share fate on shared links, emulating multicast. A round keeps the fates
   one byte per tree node (each link is the parent link of exactly one
   node), draws a fate at the link's first visit, and stops a leaf's path
   at its first dropped link. *)
let undrawn = '\000'
let passed = '\001'
let dropped = '\002'

let rec path_passes ~rng ~loss_of_link tree fates k stop =
  if k >= stop then true
  else begin
    let node = Tree.path_node tree k in
    let fate = Bytes.get fates node in
    let pass =
      if fate <> undrawn then fate = passed
      else begin
        let pass = not (Prng.bernoulli rng (loss_of_link (Tree.parent_link tree node))) in
        Bytes.set fates node (if pass then passed else dropped);
        pass
      end
    in
    pass && path_passes ~rng ~loss_of_link tree fates (k + 1) stop
  end

let probe_round ~rng ~loss_of_link ~tree ?(behavior = fun _ -> Honest) () =
  let leaf_count = Tree.leaf_count tree in
  let fates = Bytes.make (Tree.node_count tree) undrawn in
  let received = Array.make leaf_count false in
  let acked = Array.make leaf_count false in
  for leaf = 0 to leaf_count - 1 do
    let got_it =
      path_passes ~rng ~loss_of_link tree fates (Tree.path_start tree leaf)
        (Tree.path_start tree (leaf + 1))
    in
    received.(leaf) <- got_it;
    match behavior leaf with
    | Honest -> acked.(leaf) <- got_it
    | Suppress_acks p -> acked.(leaf) <- got_it && not (Prng.bernoulli rng p)
  done;
  { received; acked }

let probe_rounds ~rng ~loss_of_link ~tree ?(behavior = fun _ -> Honest) ~count () =
  Array.init count (fun _ -> probe_round ~rng ~loss_of_link ~tree ~behavior ())

let acked_matrix rounds = Array.map (fun r -> r.acked) rounds

type link_verdict = Probed_up | Probed_down | Indeterminate

(* Whether some leaf at or below each logical node acked, in one sweep from
   the last node up: a parent precedes its children in the numbering. *)
let classify_round logical acked =
  let count = Logical_tree.node_count logical in
  let subtree_acked = Array.make count false in
  for leaf = 0 to Logical_tree.leaf_count logical - 1 do
    if acked.(leaf) then subtree_acked.(Logical_tree.leaf logical leaf) <- true
  done;
  for node = count - 1 downto 1 do
    if subtree_acked.(node) then subtree_acked.(Logical_tree.parent logical node) <- true
  done;
  Array.init count (fun node ->
      if node = 0 then Indeterminate
      else if subtree_acked.(node) then Probed_up
      else if subtree_acked.(Logical_tree.parent logical node) then Probed_down
      else Indeterminate)
