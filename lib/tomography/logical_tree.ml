(* Logical node k's chain is slots [chain_starts.(k), chain_starts.(k + 1))
   of [chain_nodes] (tree nodes, top-down) and of [chain_links] (their
   parent links). *)
type t = {
  parents : int array;
  children : int array array;
  leaves : int array;
  chain_starts : int array;
  chain_nodes : int array;
  chain_links : int array;
}

let of_tree tree =
  let n = Tree.node_count tree in
  let physical_leaves = Array.init (Tree.leaf_count tree) (Tree.leaf tree) in
  let is_leaf = Array.make n false in
  Array.iter (fun node -> is_leaf.(node) <- true) physical_leaves;
  (* Kept nodes: root, physical leaves, and branching points. *)
  let keep = Array.make n false in
  keep.(0) <- true;
  for node = 0 to n - 1 do
    if is_leaf.(node) || Array.length (Tree.children tree node) >= 2 then keep.(node) <- true
  done;
  let logical_of_physical = Array.make n (-1) in
  let kept = ref [] and kept_count = ref 0 in
  for node = 0 to n - 1 do
    if keep.(node) then begin
      logical_of_physical.(node) <- !kept_count;
      incr kept_count;
      kept := node :: !kept
    end
  done;
  let physical_nodes = Array.of_list (List.rev !kept) in
  let count = !kept_count in
  let parents = Array.make count (-1) in
  let chains = Array.make count [||] in
  for logical = 1 to count - 1 do
    let physical_node = physical_nodes.(logical) in
    (* Walk up through collapsed nodes to the nearest kept ancestor,
       collecting the chain's tree nodes top-down. *)
    let rec ascend node acc =
      let parent = Tree.parent tree node in
      if keep.(parent) then (parent, node :: acc) else ascend parent (node :: acc)
    in
    let ancestor, chain = ascend physical_node [] in
    parents.(logical) <- logical_of_physical.(ancestor);
    chains.(logical) <- Array.of_list chain
  done;
  let chain_starts = Array.make (count + 1) 0 in
  Array.iteri
    (fun logical chain -> chain_starts.(logical + 1) <- chain_starts.(logical) + Array.length chain)
    chains;
  let chain_nodes = Array.concat (Array.to_list chains) in
  let chain_links = Array.map (Tree.parent_link tree) chain_nodes in
  let child_lists = Array.make count [] in
  for logical = count - 1 downto 1 do
    child_lists.(parents.(logical)) <- logical :: child_lists.(parents.(logical))
  done;
  let children = Array.map Array.of_list child_lists in
  let leaves = Array.map (fun node -> logical_of_physical.(node)) physical_leaves in
  { parents; children; leaves; chain_starts; chain_nodes; chain_links }

let node_count t = Array.length t.parents
let parent t node = t.parents.(node)
let children t node = t.children.(node)
let leaf t i = t.leaves.(i)
let leaf_count t = Array.length t.leaves
let chain t node =
  Array.sub t.chain_links t.chain_starts.(node) (t.chain_starts.(node + 1) - t.chain_starts.(node))

let parents t = t.parents
let leaves t = t.leaves
let chain_starts t = t.chain_starts
let chain_nodes t = t.chain_nodes
let chain_links t = t.chain_links
