type path = { nodes : int array; links : int array }

let hop_count p = Array.length p.links

(* A BFS tree over one region of the graph: the whole graph, the transit
   core or one stub domain. [slot] numbers the region's nodes 0 .. size-1
   and maps every other node to -1; the parent arrays are indexed by slot
   and hold -1 at the root and at unreached nodes. *)
type tree = {
  slot : int -> int;
  root : int;
  parent_node : int array;
  parent_link : int array;
}

(* The library's one breadth-first search. Neighbours are visited in
   adjacency order and the queue is FIFO, so ties break the same way in
   every region: a search confined to a region that the whole-graph search
   can only enter through one node yields that search's parents there. *)
let bfs graph ~slot ~size ~root =
  let parent_node = Array.make size (-1) and parent_link = Array.make size (-1) in
  let root_slot = slot root in
  let queue = Array.make size root in
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let node = queue.(!head) in
    incr head;
    Graph.iter_neighbors graph node (fun ~neighbor ~link ->
        let i = slot neighbor in
        if i >= 0 && i <> root_slot && parent_link.(i) < 0 then begin
          parent_node.(i) <- node;
          parent_link.(i) <- link;
          queue.(!tail) <- neighbor;
          incr tail
        end)
  done;
  { slot; root; parent_node; parent_link }

let reached tree node =
  let i = tree.slot node in
  i >= 0 && (node = tree.root || tree.parent_link.(i) >= 0)

(* Prepend the tree path from the root to a reached [node]. *)
let rec prepend tree node nodes links =
  if node = tree.root then (node :: nodes, links)
  else begin
    let i = tree.slot node in
    prepend tree tree.parent_node.(i) (node :: nodes) (tree.parent_link.(i) :: links)
  end

let to_path (nodes, links) = { nodes = Array.of_list nodes; links = Array.of_list links }

let shortest_paths graph ~source ~targets =
  let tree = bfs graph ~slot:Fun.id ~size:(Graph.node_count graph) ~root:source in
  Array.map
    (fun target -> if reached tree target then Some (to_path (prepend tree target [] [])) else None)
    targets

let shortest_path graph ~source ~target =
  (shortest_paths graph ~source ~targets:[| target |]).(0)

let link_depth_fraction p i =
  let count = hop_count p in
  if i < 0 || i >= count then invalid_arg "Routes.link_depth_fraction: index out of range";
  if count = 1 then 0.5 else float_of_int i /. float_of_int (count - 1)

module Hierarchy = struct
  type t = {
    graph : Graph.t;
    domain : int array;  (* node -> its stub domain, -1 in the transit core *)
    local : int array;  (* node -> its index within its domain or the core *)
    sizes : int array;  (* domain -> node count *)
    gateway : int array;  (* domain -> its end of the gateway link *)
    uplink : int array;  (* domain -> the gateway link *)
    attachment : int array;  (* domain -> the core end of the gateway link *)
    core_trees : tree option array;  (* by core index of the root *)
    domain_trees : tree option array;  (* by domain, rooted at its gateway *)
  }

  let create graph ~classes =
    let n = Graph.node_count graph in
    if Array.length classes <> n then invalid_arg "Routes.Hierarchy.create: one class per node";
    let transit node = classes.(node) = Generate.Transit in
    let domain = Graph.components graph ~member:(fun node -> not (transit node)) in
    let domains = Array.fold_left Int.max (-1) domain + 1 in
    let local = Array.make n 0 in
    let sizes = Array.make domains 0 in
    let core_size = ref 0 in
    for node = 0 to n - 1 do
      let d = domain.(node) in
      if d < 0 then begin
        local.(node) <- !core_size;
        incr core_size
      end
      else begin
        local.(node) <- sizes.(d);
        sizes.(d) <- sizes.(d) + 1
      end
    done;
    let uplinks = Array.make domains 0 in
    let gateway = Array.make domains (-1) in
    let uplink = Array.make domains (-1) in
    let attachment = Array.make domains (-1) in
    for link = 0 to Graph.link_count graph - 1 do
      let a, b = Graph.link_endpoints graph link in
      if transit a <> transit b then begin
        let stub, core = if transit a then (b, a) else (a, b) in
        let d = domain.(stub) in
        uplinks.(d) <- uplinks.(d) + 1;
        gateway.(d) <- stub;
        uplink.(d) <- link;
        attachment.(d) <- core
      end
    done;
    Array.iteri
      (fun d count ->
        if count <> 1 then
          invalid_arg
            (Printf.sprintf "Routes.Hierarchy.create: stub domain %d has %d links into the core"
               d count))
      uplinks;
    {
      graph;
      domain;
      local;
      sizes;
      gateway;
      uplink;
      attachment;
      core_trees = Array.make !core_size None;
      domain_trees = Array.make domains None;
    }

  (* A BFS confined to one region: stub domain [region], or the core when
     [region] is -1. *)
  let search h region ~root =
    let size = if region < 0 then Array.length h.core_trees else h.sizes.(region) in
    let slot node = if h.domain.(node) = region then h.local.(node) else -1 in
    bfs h.graph ~slot ~size ~root

  let cached trees i make =
    match trees.(i) with
    | Some tree -> tree
    | None ->
        let tree = make () in
        trees.(i) <- Some tree;
        tree

  let core_tree h root = cached h.core_trees h.local.(root) (fun () -> search h (-1) ~root)
  let domain_tree h d = cached h.domain_trees d (fun () -> search h d ~root:h.gateway.(d))

  (* A route leaves the source's domain by its gateway link, crosses the
     core and enters the target's domain by its gateway link; each part is
     a path in a BFS tree confined to its region. *)
  let shortest_paths h ~source ~targets =
    let home = h.domain.(source) in
    let own = if home >= 0 then Some (search h home ~root:source) else None in
    let entry = if home >= 0 then h.attachment.(home) else source in
    let route target =
      let d = h.domain.(target) in
      match own with
      | Some own when d = home -> Some (to_path (prepend own target [] []))
      | _ ->
          let core = core_tree h entry in
          let exit = if d >= 0 then h.attachment.(d) else target in
          if not (reached core exit) then None
          else begin
            let nodes, links =
              if d >= 0 then begin
                let nodes, links = prepend (domain_tree h d) target [] [] in
                (nodes, h.uplink.(d) :: links)
              end
              else ([], [])
            in
            let nodes, links = prepend core exit nodes links in
            match own with
            | Some own -> Some (to_path (prepend own h.gateway.(home) nodes (h.uplink.(home) :: links)))
            | None -> Some (to_path (nodes, links))
          end
    in
    Array.map route targets
end
