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

let rec path_passes ~rng ~loss_of_link path_nodes parent_links fates k stop =
  if k >= stop then true
  else begin
    let node = path_nodes.(k) in
    let fate = Bytes.get fates node in
    let pass =
      if fate <> undrawn then fate = passed
      else begin
        let pass = not (Prng.bernoulli rng (loss_of_link parent_links.(node))) in
        Bytes.set fates node (if pass then passed else dropped);
        pass
      end
    in
    pass && path_passes ~rng ~loss_of_link path_nodes parent_links fates (k + 1) stop
  end

(* The tree's arrays are read in place: under -opaque an accessor call per
   node visited cost more than the visit. *)
let draw ~rng ~loss_of_link ~tree ~behavior ~fates ~received ~acked =
  Bytes.fill fates 0 (Tree.node_count tree) undrawn;
  let path_nodes = Tree.path_nodes tree and starts = Tree.path_starts tree in
  let parent_links = Tree.parent_links tree in
  for leaf = 0 to Tree.leaf_count tree - 1 do
    let got_it =
      path_passes ~rng ~loss_of_link path_nodes parent_links fates starts.(leaf)
        starts.(leaf + 1)
    in
    received.(leaf) <- got_it;
    match behavior leaf with
    | Honest -> acked.(leaf) <- got_it
    | Suppress_acks p -> acked.(leaf) <- got_it && not (Prng.bernoulli rng p)
  done

let probe_round ~rng ~loss_of_link ~tree ?(behavior = fun _ -> Honest) () =
  let leaf_count = Tree.leaf_count tree in
  let received = Array.make leaf_count false in
  let acked = Array.make leaf_count false in
  draw ~rng ~loss_of_link ~tree ~behavior ~fates:(Bytes.create (Tree.node_count tree)) ~received
    ~acked;
  { received; acked }

let probe_rounds ~rng ~loss_of_link ~tree ?(behavior = fun _ -> Honest) ~count () =
  Array.init count (fun _ -> probe_round ~rng ~loss_of_link ~tree ~behavior ())

let acked_matrix rounds = Array.map (fun r -> r.acked) rounds

type link_verdict = Probed_up | Probed_down | Indeterminate

(* Whether some leaf at or below each logical node acked, in one sweep from
   the last node up (a parent precedes its children in the numbering),
   marked [Probed_up] in place; then a node that is not up is down when
   its parent is up. *)
let classify_into logical acked verdicts =
  let count = Logical_tree.node_count logical in
  let parents = Logical_tree.parents logical and leaves = Logical_tree.leaves logical in
  Array.fill verdicts 0 count Indeterminate;
  for leaf = 0 to Array.length leaves - 1 do
    if acked.(leaf) then verdicts.(leaves.(leaf)) <- Probed_up
  done;
  for node = count - 1 downto 1 do
    match verdicts.(node) with
    | Probed_up -> verdicts.(parents.(node)) <- Probed_up
    | Probed_down | Indeterminate -> ()
  done;
  for node = 1 to count - 1 do
    match (verdicts.(node), verdicts.(parents.(node))) with
    | (Probed_down | Indeterminate), Probed_up -> verdicts.(node) <- Probed_down
    | _ -> ()
  done;
  verdicts.(0) <- Indeterminate

let classify_round logical acked =
  let verdicts = Array.make (Logical_tree.node_count logical) Indeterminate in
  classify_into logical acked verdicts;
  verdicts
