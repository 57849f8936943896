module Routes = Concilium_topology.Routes

type t = {
  root : int;
  routers : int array; (* tree node -> router id *)
  parents : int array;
  parent_links : int array;
  children : int array array;
  leaves : int array;
  (* Every leaf's path, top-down without the root, back to back in leaf
     order: leaf i's is path_nodes.(path_starts.(i)) to
     path_nodes.(path_starts.(i + 1) - 1). *)
  path_nodes : int array;
  path_starts : int array;
  (* The tree's links ascending, and the node below each: a link's node is
     one binary search of one array away. *)
  links : int array;
  link_nodes : int array;
}

(* Growable parallel arrays during construction. *)
type building = {
  mutable b_routers : int array;
  mutable b_parents : int array;
  mutable b_links : int array;
  mutable b_count : int;
}

let push b ~router ~parent ~link =
  let capacity = Array.length b.b_routers in
  if b.b_count = capacity then begin
    let next = max 16 (2 * capacity) in
    let grow a = Array.append a (Array.make (next - capacity) (-1)) in
    b.b_routers <- grow b.b_routers;
    b.b_parents <- grow b.b_parents;
    b.b_links <- grow b.b_links
  end;
  b.b_routers.(b.b_count) <- router;
  b.b_parents.(b.b_count) <- parent;
  b.b_links.(b.b_count) <- link;
  b.b_count <- b.b_count + 1;
  b.b_count - 1

let of_paths ~root ~paths =
  let by_router = Hashtbl.create 256 in
  let b = { b_routers = [||]; b_parents = [||]; b_links = [||]; b_count = 0 } in
  ignore (push b ~router:root ~parent:(-1) ~link:(-1));
  Hashtbl.replace by_router root 0;
  let add_node router ~parent ~link =
    match Hashtbl.find_opt by_router router with
    | Some node ->
        if b.b_parents.(node) <> parent then
          invalid_arg "Tree.of_paths: paths do not form a tree";
        node
    | None ->
        let node = push b ~router ~parent ~link in
        Hashtbl.replace by_router router node;
        node
  in
  let leaf_set = Hashtbl.create 64 in
  let leaf_list = ref [] in
  Array.iter
    (fun path ->
      let nodes = path.Routes.nodes and links = path.Routes.links in
      if Array.length links > 0 then begin
        if nodes.(0) <> root then invalid_arg "Tree.of_paths: path does not start at root";
        let parent = ref 0 in
        for i = 1 to Array.length nodes - 1 do
          parent := add_node nodes.(i) ~parent:!parent ~link:links.(i - 1)
        done;
        if not (Hashtbl.mem leaf_set !parent) then begin
          Hashtbl.replace leaf_set !parent ();
          leaf_list := !parent :: !leaf_list
        end
      end)
    paths;
  let n = b.b_count in
  let routers = Array.sub b.b_routers 0 n in
  let parents = Array.sub b.b_parents 0 n in
  let parent_links = Array.sub b.b_links 0 n in
  let child_lists = Array.make n [] in
  for node = n - 1 downto 1 do
    child_lists.(parents.(node)) <- node :: child_lists.(parents.(node))
  done;
  let children = Array.map Array.of_list child_lists in
  let leaves = Array.of_list (List.rev !leaf_list) in
  let rec depth node = if node = 0 then 0 else 1 + depth parents.(node) in
  let path_starts = Array.make (Array.length leaves + 1) 0 in
  Array.iteri (fun i leaf -> path_starts.(i + 1) <- path_starts.(i) + depth leaf) leaves;
  let path_nodes = Array.make path_starts.(Array.length leaves) 0 in
  Array.iteri
    (fun i leaf ->
      let node = ref leaf in
      for k = path_starts.(i + 1) - 1 downto path_starts.(i) do
        path_nodes.(k) <- !node;
        node := parents.(!node)
      done)
    leaves;
  let link_nodes = Array.init (n - 1) (fun i -> i + 1) in
  Array.sort (fun a b -> Int.compare parent_links.(a) parent_links.(b)) link_nodes;
  let links = Array.map (fun node -> parent_links.(node)) link_nodes in
  { root; routers; parents; parent_links; children; leaves; path_nodes; path_starts; links; link_nodes }

let root t = t.root
let node_count t = Array.length t.routers
let router_of t node = t.routers.(node)
let parent t node = t.parents.(node)
let parent_link t node = t.parent_links.(node)
let children t node = t.children.(node)
let leaf_count t = Array.length t.leaves
let leaf t i = t.leaves.(i)
let path_starts t = t.path_starts
let path_nodes t = t.path_nodes
let parent_links t = t.parent_links

let physical_links t = Array.copy t.links

(* One merge of the two ascending arrays: each link's search starts where
   the previous one stopped. *)
let find_links t sorted nodes =
  let links = t.links in
  let n = Array.length links in
  let j = ref 0 in
  for i = 0 to Array.length sorted - 1 do
    let link = sorted.(i) in
    while !j < n && links.(!j) < link do
      incr j
    done;
    nodes.(i) <- (if !j < n && links.(!j) = link then t.link_nodes.(!j) else -1)
  done

let node_of_link t link =
  let links = t.links in
  let lo = ref 0 and hi = ref (Array.length links) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if links.(mid) < link then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length links && links.(!lo) = link then t.link_nodes.(!lo) else -1
