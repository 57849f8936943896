module Generate = Concilium_topology.Generate
module Graph = Concilium_topology.Graph
module Routes = Concilium_topology.Routes
module Id = Concilium_overlay.Id
module Pastry = Concilium_overlay.Pastry
module Tree = Concilium_tomography.Tree
module Logical_tree = Concilium_tomography.Logical_tree
module Pki = Concilium_crypto.Pki
module Prng = Concilium_util.Prng

type config = {
  topology : Generate.params;
  overlay_fraction : float;
  leaf_half_size : int;
  seed : int64;
}

let tiny_config ~seed =
  {
    topology = Generate.tiny ~seed;
    overlay_fraction = 0.6;
    leaf_half_size = 4;
    seed;
  }

let small_config ~seed =
  {
    topology = Generate.small_scale ~seed;
    overlay_fraction = 0.06;
    leaf_half_size = 8;
    seed;
  }

let paper_config ~seed =
  {
    topology = Generate.paper_scale ~seed;
    overlay_fraction = 0.03;
    leaf_half_size = 8;
    seed;
  }

type t = {
  config : config;
  generated : Generate.world;
  pastry : Pastry.t;
  host_router : int array;
  peers : int array array;
  sorted_peers : int array array;
  peer_paths : Routes.path option array array;
  trees : Tree.t array;
  leaf_peers : int array array;
  logical : Logical_tree.t array;
  pki : Pki.t;
  certificates : Pki.certificate array;
  secrets : Pki.secret_key array;
  (* CSR over links: vouchers for link l are
     voucher_nodes[voucher_offsets.(l) .. voucher_offsets.(l+1)), ascending. *)
  voucher_offsets : int array;
  voucher_nodes : int array;
}

let build config =
  let generated = Generate.generate config.topology in
  let graph = generated.Generate.graph in
  let rng = Prng.of_seed config.seed in
  let hosts = Graph.end_hosts graph in
  let member_count =
    max 2 (int_of_float (Float.round (config.overlay_fraction *. float_of_int (Array.length hosts))))
  in
  let chosen = Prng.sample_without_replacement rng member_count (Array.length hosts) in
  let host_router = Array.map (fun i -> hosts.(i)) chosen in
  (* The certificate authority assigns random identifiers; binding them to
     addresses derived from router ids keeps the simulation auditable. *)
  let pki = Pki.create ~seed:(Prng.int64 rng) in
  let ids = Array.init member_count (fun _ -> Id.random rng) in
  let enrolled =
    Array.init member_count (fun v ->
        Pki.issue pki
          ~address:(Printf.sprintf "10.%d.%d.%d" (host_router.(v) lsr 16)
                      ((host_router.(v) lsr 8) land 0xFF)
                      (host_router.(v) land 0xFF))
          ~node_id:(Id.to_hex ids.(v)))
  in
  let certificates = Array.map fst enrolled in
  let secrets = Array.map snd enrolled in
  let pastry = Pastry.build ~leaf_half_size:config.leaf_half_size ids in
  let peers = Array.init member_count (fun v -> Pastry.routing_peers pastry v) in
  let sorted_peers =
    Array.map (fun row -> Array.of_list (List.sort Int.compare (Array.to_list row))) peers
  in
  let router = Routes.Hierarchy.create graph ~classes:generated.Generate.classes in
  let peer_paths =
    Array.init member_count (fun v ->
        let targets = Array.map (fun peer -> host_router.(peer)) peers.(v) in
        Routes.Hierarchy.shortest_paths router ~source:host_router.(v) ~targets)
  in
  let trees =
    Array.init member_count (fun v ->
        let paths =
          Array.of_list (List.filter_map (fun p -> p) (Array.to_list peer_paths.(v)))
        in
        Tree.of_paths ~root:host_router.(v) ~paths)
  in
  let logical = Array.map Logical_tree.of_tree trees in
  (* Two-pass CSR build: count vouchers per link, then fill node-major so
     each link's slice ends up in ascending node order. *)
  let link_count = Graph.link_count graph in
  let voucher_offsets = Array.make (link_count + 1) 0 in
  Array.iter
    (fun tree ->
      Array.iter
        (fun link -> voucher_offsets.(link + 1) <- voucher_offsets.(link + 1) + 1)
        (Tree.physical_links tree))
    trees;
  for link = 0 to link_count - 1 do
    voucher_offsets.(link + 1) <- voucher_offsets.(link + 1) + voucher_offsets.(link)
  done;
  let voucher_nodes = Array.make voucher_offsets.(link_count) 0 in
  let cursor = Array.copy voucher_offsets in
  Array.iteri
    (fun v tree ->
      Array.iter
        (fun link ->
          voucher_nodes.(cursor.(link)) <- v;
          cursor.(link) <- cursor.(link) + 1)
        (Tree.physical_links tree))
    trees;
  (* Router -> overlay node, -1 when the router hosts none. *)
  let router_node = Array.make (Graph.node_count graph) (-1) in
  Array.iteri (fun v router -> router_node.(router) <- v) host_router;
  let leaf_peers =
    Array.map
      (fun tree ->
        Array.init (Tree.leaf_count tree) (fun i -> router_node.(Tree.router_of tree (Tree.leaf tree i))))
      trees
  in
  {
    config;
    generated;
    pastry;
    host_router;
    peers;
    sorted_peers;
    peer_paths;
    trees;
    leaf_peers;
    logical;
    pki;
    certificates;
    secrets;
    voucher_offsets;
    voucher_nodes;
  }

let node_count t = Array.length t.host_router
let id_of t v = (Pastry.node t.pastry v).Pastry.id
let public_key_of t v = t.certificates.(v).Pki.subject_key

(* Not [Sorted.mem], whose predicate closure allocates on every call. *)
let is_peer t v peer =
  let sorted = t.sorted_peers.(v) in
  let lo = ref 0 and hi = ref (Array.length sorted) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if sorted.(mid) < peer then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length sorted && sorted.(!lo) = peer

let ip_path t ~from_node ~to_node =
  let rec find i =
    if i >= Array.length t.peers.(from_node) then None
    else if t.peers.(from_node).(i) = to_node then t.peer_paths.(from_node).(i)
    else find (i + 1)
  in
  find 0

let overlay_route t ~from ~dest = Pastry.route t.pastry ~from ~dest

let forest_links t v =
  let seen = Concilium_util.Bitset.create (Graph.link_count t.generated.Generate.graph) in
  let add_tree index =
    Array.iter
      (fun link -> Concilium_util.Bitset.add seen link)
      (Tree.physical_links t.trees.(index))
  in
  add_tree v;
  Array.iter add_tree t.peers.(v);
  let out = Array.make (Concilium_util.Bitset.cardinal seen) 0 in
  let k = ref 0 in
  (* Bitset iteration is ascending: the output arrives sorted. *)
  Concilium_util.Bitset.iter
    (fun link ->
      out.(!k) <- link;
      incr k)
    seen;
  out

let vouchers t ~link =
  if link < 0 || link + 1 >= Array.length t.voucher_offsets then []
  else begin
    let acc = ref [] in
    for i = t.voucher_offsets.(link + 1) - 1 downto t.voucher_offsets.(link) do
      acc := t.voucher_nodes.(i) :: !acc
    done;
    !acc
  end

let all_peer_paths t =
  let out = ref [] in
  Array.iter
    (fun per_node -> Array.iter (function Some p -> out := p :: !out | None -> ()) per_node)
    t.peer_paths;
  Array.of_list !out
