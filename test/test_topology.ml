module Graph = Concilium_topology.Graph
module Generate = Concilium_topology.Generate
module Routes = Concilium_topology.Routes
module Prng = Concilium_util.Prng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ---------- Graph ---------- *)

let diamond () =
  (* 0-1, 0-2, 1-3, 2-3: two equal-length paths from 0 to 3. *)
  let b = Graph.Builder.create 4 in
  Graph.Builder.add_link b 0 1;
  Graph.Builder.add_link b 0 2;
  Graph.Builder.add_link b 1 3;
  Graph.Builder.add_link b 2 3;
  Graph.build b

let test_graph_basic () =
  let g = diamond () in
  check Alcotest.int "nodes" 4 (Graph.node_count g);
  check Alcotest.int "links" 4 (Graph.link_count g);
  check Alcotest.int "degree 0" 2 (Graph.degree g 0);
  check (Alcotest.float 1e-9) "mean degree" 2. (Graph.mean_degree g);
  check Alcotest.bool "connected" true (Graph.is_connected g)

let test_graph_dedup_and_self_loops () =
  let b = Graph.Builder.create 3 in
  Graph.Builder.add_link b 0 1;
  Graph.Builder.add_link b 1 0;
  Graph.Builder.add_link b 2 2;
  check Alcotest.int "deduped" 1 (Graph.Builder.link_count b);
  let g = Graph.build b in
  check Alcotest.int "one link" 1 (Graph.link_count g);
  check Alcotest.bool "disconnected" false (Graph.is_connected g)

let test_graph_components () =
  (* 0-1-2 and 3-4 in the whole graph; without node 1, 0 and 2 split. *)
  let b = Graph.Builder.create 5 in
  Graph.Builder.add_link b 0 1;
  Graph.Builder.add_link b 2 1;
  Graph.Builder.add_link b 4 3;
  let g = Graph.build b in
  check (Alcotest.array Alcotest.int) "whole graph" [| 0; 0; 0; 1; 1 |]
    (Graph.components g ~member:(fun _ -> true));
  check (Alcotest.array Alcotest.int) "without node 1" [| 0; -1; 1; 2; 2 |]
    (Graph.components g ~member:(fun node -> node <> 1))

let test_graph_link_lookup () =
  let g = diamond () in
  (match Graph.link_between g 0 1 with
  | Some link ->
      let lo, hi = Graph.link_endpoints g link in
      check (Alcotest.pair Alcotest.int Alcotest.int) "endpoints" (0, 1) (lo, hi)
  | None -> Alcotest.fail "expected link 0-1");
  check (Alcotest.option Alcotest.int) "absent link" None (Graph.link_between g 1 2)

let test_graph_end_hosts () =
  let b = Graph.Builder.create 4 in
  Graph.Builder.add_link b 0 1;
  Graph.Builder.add_link b 1 2;
  Graph.Builder.add_link b 1 3;
  let g = Graph.build b in
  check (Alcotest.array Alcotest.int) "degree-1 nodes" [| 0; 2; 3 |] (Graph.end_hosts g)

let test_graph_add_node () =
  let b = Graph.Builder.create 1 in
  let fresh = Graph.Builder.add_node b in
  check Alcotest.int "appended id" 1 fresh;
  Graph.Builder.add_link b 0 fresh;
  let g = Graph.build b in
  check Alcotest.int "grown" 2 (Graph.node_count g)

(* ---------- Generate ---------- *)

let test_generate_tiny_invariants () =
  let world = Generate.generate (Generate.tiny ~seed:3L) in
  let g = world.Generate.graph in
  check Alcotest.bool "connected" true (Graph.is_connected g);
  (* Every End_host node has degree exactly 1; every degree-1 node at tiny
     scale is an end host. *)
  for node = 0 to Graph.node_count g - 1 do
    match Generate.class_of world node with
    | Generate.End_host ->
        check Alcotest.int (Printf.sprintf "end host %d degree" node) 1 (Graph.degree g node)
    | Generate.Transit | Generate.Stub -> ()
  done;
  (* Every End_host is degree-1, so it appears in Graph.end_hosts; the
     converse need not hold (a leaf stub router is also degree-1). *)
  check Alcotest.bool "end hosts within degree-1 census" true
    (Array.length (Graph.end_hosts g) >= Generate.end_host_count world)

let test_generate_deterministic () =
  let a = Generate.generate (Generate.tiny ~seed:5L) in
  let b = Generate.generate (Generate.tiny ~seed:5L) in
  check Alcotest.int "same nodes" (Graph.node_count a.Generate.graph)
    (Graph.node_count b.Generate.graph);
  check Alcotest.int "same links" (Graph.link_count a.Generate.graph)
    (Graph.link_count b.Generate.graph);
  let c = Generate.generate (Generate.tiny ~seed:6L) in
  check Alcotest.bool "different seed differs" true
    (Graph.link_count c.Generate.graph <> Graph.link_count a.Generate.graph
    || Graph.end_hosts c.Generate.graph <> Graph.end_hosts a.Generate.graph)

let test_generate_small_scale_population () =
  let params = Generate.small_scale ~seed:1L in
  let world = Generate.generate params in
  let expected_hosts =
    params.Generate.transit_domains * params.Generate.routers_per_transit
    * params.Generate.stub_domains_per_transit_router * params.Generate.end_hosts_per_stub
  in
  check Alcotest.int "end hosts" expected_hosts (Generate.end_host_count world);
  check Alcotest.bool "connected" true (Graph.is_connected world.Generate.graph)

(* ---------- Routes ---------- *)

let test_bfs_shortest_on_diamond () =
  let g = diamond () in
  match Routes.shortest_path g ~source:0 ~target:3 with
  | None -> Alcotest.fail "expected a path"
  | Some path ->
      check Alcotest.int "hop count" 2 (Routes.hop_count path);
      check Alcotest.int "starts at source" 0 path.Routes.nodes.(0);
      check Alcotest.int "ends at target" 3 path.Routes.nodes.(2)

let test_bfs_unreachable () =
  let b = Graph.Builder.create 3 in
  Graph.Builder.add_link b 0 1;
  let g = Graph.build b in
  check Alcotest.bool "unreachable" true (Routes.shortest_path g ~source:0 ~target:2 = None)

let test_bfs_self_path () =
  let g = diamond () in
  match Routes.shortest_path g ~source:1 ~target:1 with
  | None -> Alcotest.fail "self path"
  | Some path -> check Alcotest.int "zero hops" 0 (Routes.hop_count path)

let test_link_depth_fraction () =
  let g = diamond () in
  let path = Option.get (Routes.shortest_path g ~source:0 ~target:3) in
  check (Alcotest.float 1e-9) "first link" 0. (Routes.link_depth_fraction path 0);
  check (Alcotest.float 1e-9) "last link" 1. (Routes.link_depth_fraction path 1)

let prop_bfs_paths_consistent =
  QCheck.Test.make ~name:"BFS paths are connected, minimal, and well-formed" ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let world = Generate.generate (Generate.tiny ~seed:(Int64.of_int seed)) in
      let g = world.Generate.graph in
      let rng = Prng.of_seed (Int64.of_int (seed + 1)) in
      let source = Prng.int rng (Graph.node_count g) in
      let targets = Array.init 5 (fun _ -> Prng.int rng (Graph.node_count g)) in
      let paths = Routes.shortest_paths g ~source ~targets in
      Array.for_all
        (function
          | None -> false (* tiny worlds are connected *)
          | Some path ->
              let nodes = path.Routes.nodes and links = path.Routes.links in
              Array.length nodes = Array.length links + 1
              && nodes.(0) = source
              && Array.for_all (fun x -> x) (Array.mapi
                   (fun i link ->
                     let lo, hi = Graph.link_endpoints g link in
                     (lo = nodes.(i) && hi = nodes.(i + 1))
                     || (hi = nodes.(i) && lo = nodes.(i + 1)))
                   links))
        paths)

let prop_bfs_triangle_inequality =
  QCheck.Test.make ~name:"BFS distances obey the triangle inequality" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let world = Generate.generate (Generate.tiny ~seed:(Int64.of_int seed)) in
      let g = world.Generate.graph in
      let rng = Prng.of_seed (Int64.of_int (seed + 7)) in
      let pick () = Prng.int rng (Graph.node_count g) in
      let a = pick () and b = pick () and c = pick () in
      let distance x y =
        match Routes.shortest_path g ~source:x ~target:y with
        | Some p -> Routes.hop_count p
        | None -> max_int
      in
      distance a c <= distance a b + distance b c)

(* ---------- Hierarchical routes ---------- *)

(* Random transit-stub parameters, each field at its degenerate bound about
   a third of the time: one transit domain, one router per transit domain,
   one router per stub, no stubs, no end hosts, no chords. *)
let gen_params =
  let open QCheck.Gen in
  let field lo hi = frequency [ (1, return lo); (2, int_range lo hi) ] in
  map
    (fun ((seed, td, rt, tc), (ie, sd, rs), (sc, eh)) ->
      {
        Generate.seed = Int64.of_int seed;
        transit_domains = td;
        routers_per_transit = rt;
        transit_chords_per_domain = tc;
        interdomain_extra_links = ie;
        stub_domains_per_transit_router = sd;
        routers_per_stub = rs;
        stub_chords_per_domain = sc;
        end_hosts_per_stub = eh;
      })
    (triple
       (quad (int_range 0 1_000_000) (field 1 4) (field 1 5) (field 0 3))
       (triple (field 0 3) (field 0 3) (field 1 8))
       (pair (field 0 4) (field 0 4)))

let print_params p =
  Printf.sprintf
    "seed %Ld, %d transit domains x %d routers (+%d chords, +%d interdomain), %d stubs per \
     router x %d routers (+%d chords), %d end hosts per stub"
    p.Generate.seed p.Generate.transit_domains p.Generate.routers_per_transit
    p.Generate.transit_chords_per_domain p.Generate.interdomain_extra_links
    p.Generate.stub_domains_per_transit_router p.Generate.routers_per_stub
    p.Generate.stub_chords_per_domain p.Generate.end_hosts_per_stub

(* One source of each kind present: a transit router, a stub router of
   degree above 1, a degree-1 leaf stub router and an attached end host. *)
let sources_by_class world rng =
  let g = world.Generate.graph in
  let pick keep =
    let members = List.filter keep (List.init (Graph.node_count g) Fun.id) in
    if members = [] then [] else [ Prng.choose rng (Array.of_list members) ]
  in
  let cls node = Generate.class_of world node in
  pick (fun node -> cls node = Generate.Transit)
  @ pick (fun node -> cls node = Generate.Stub && Graph.degree g node > 1)
  @ pick (fun node -> cls node = Generate.Stub && Graph.degree g node = 1)
  @ pick (fun node -> cls node = Generate.End_host)

let prop_hierarchy_matches_bfs =
  QCheck.Test.make ~name:"hierarchical routes = whole-graph BFS on generated worlds" ~count:150
    (QCheck.make ~print:print_params gen_params)
    (fun params ->
      let world = Generate.generate params in
      let g = world.Generate.graph in
      let router = Routes.Hierarchy.create g ~classes:world.Generate.classes in
      let targets = Array.init (Graph.node_count g) Fun.id in
      let rng = Prng.of_seed params.Generate.seed in
      List.iter
        (fun source ->
          let oracle = Routes.shortest_paths g ~source ~targets in
          let routed = Routes.Hierarchy.shortest_paths router ~source ~targets in
          Array.iteri
            (fun target expected ->
              if routed.(target) <> expected then
                QCheck.Test.fail_reportf "route %d -> %d differs from the BFS oracle" source target)
            oracle)
        (sources_by_class world rng);
      true)

(* Nodes 0 and 1 are transit routers; the rest are stub routers. *)
let hand_built ~nodes ~links =
  let b = Graph.Builder.create nodes in
  List.iter (fun (u, v) -> Graph.Builder.add_link b u v) links;
  let classes =
    Array.init nodes (fun node -> if node < 2 then Generate.Transit else Generate.Stub)
  in
  (Graph.build b, classes)

let test_hierarchy_rejects_two_gateway_links () =
  let rejects ~nodes ~links =
    let g, classes = hand_built ~nodes ~links in
    match Routes.Hierarchy.create g ~classes with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  (* Stub domain {2, 3} reaches the core from both of its routers. *)
  check Alcotest.bool "two gateways" true
    (rejects ~nodes:4 ~links:[ (0, 1); (2, 3); (2, 0); (3, 1) ]);
  (* One gateway router with two links into the core. *)
  check Alcotest.bool "two uplinks from one gateway" true
    (rejects ~nodes:4 ~links:[ (0, 1); (2, 3); (2, 0); (2, 1) ]);
  (* Stub domain {3} never reaches the core. *)
  check Alcotest.bool "no uplink" true (rejects ~nodes:4 ~links:[ (0, 1); (2, 0) ]);
  check Alcotest.bool "one uplink each" false
    (rejects ~nodes:4 ~links:[ (0, 1); (2, 0); (3, 1) ])

let test_hierarchy_split_core () =
  (* Two unlinked transit routers, each with a two-router stub domain: routes
     across the split are None, as in the BFS oracle. *)
  let g, classes = hand_built ~nodes:6 ~links:[ (2, 0); (3, 2); (4, 1); (5, 4) ] in
  let router = Routes.Hierarchy.create g ~classes in
  let targets = Array.init 6 Fun.id in
  for source = 0 to 5 do
    let routed = Routes.Hierarchy.shortest_paths router ~source ~targets in
    check Alcotest.bool
      (Printf.sprintf "routes from %d equal the oracle's" source)
      true
      (routed = Routes.shortest_paths g ~source ~targets);
    check Alcotest.bool
      (Printf.sprintf "routes from %d reach across the split" source)
      false
      (Array.for_all Option.is_some routed)
  done


(* ---------- Serialize ---------- *)

module Serialize = Concilium_topology.Serialize

let test_serialize_roundtrip () =
  let world = Generate.generate (Generate.tiny ~seed:44L) in
  let path = Filename.temp_file "concilium-topo" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serialize.save_world ~path world;
      match Serialize.load_world ~path with
      | Error message -> Alcotest.failf "load failed: %s" message
      | Ok loaded ->
          check Alcotest.int "nodes" (Graph.node_count world.Generate.graph)
            (Graph.node_count loaded.Generate.graph);
          check Alcotest.int "links" (Graph.link_count world.Generate.graph)
            (Graph.link_count loaded.Generate.graph);
          check (Alcotest.array Alcotest.int) "end hosts"
            (Graph.end_hosts world.Generate.graph)
            (Graph.end_hosts loaded.Generate.graph))

let test_serialize_rejects_garbage () =
  let path = Filename.temp_file "concilium-topo" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "NOT-A-TOPOLOGY-FILE-AT-ALL";
      close_out oc;
      match Serialize.load_world ~path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "garbage accepted")

let suites =
  [
    ( "topology.graph",
      [
        Alcotest.test_case "basics" `Quick test_graph_basic;
        Alcotest.test_case "dedup and self-loops" `Quick test_graph_dedup_and_self_loops;
        Alcotest.test_case "link lookup" `Quick test_graph_link_lookup;
        Alcotest.test_case "end hosts" `Quick test_graph_end_hosts;
        Alcotest.test_case "add node" `Quick test_graph_add_node;
        Alcotest.test_case "components" `Quick test_graph_components;
      ] );
    ( "topology.generate",
      [
        Alcotest.test_case "tiny invariants" `Quick test_generate_tiny_invariants;
        Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
        Alcotest.test_case "small-scale population" `Quick test_generate_small_scale_population;
      ] );
    ( "topology.serialize",
      [
        Alcotest.test_case "roundtrip" `Quick test_serialize_roundtrip;
        Alcotest.test_case "rejects garbage" `Quick test_serialize_rejects_garbage;
      ] );
    ( "topology.routes",
      [
        Alcotest.test_case "diamond shortest path" `Quick test_bfs_shortest_on_diamond;
        Alcotest.test_case "unreachable" `Quick test_bfs_unreachable;
        Alcotest.test_case "self path" `Quick test_bfs_self_path;
        Alcotest.test_case "link depth fraction" `Quick test_link_depth_fraction;
        qtest prop_bfs_paths_consistent;
        qtest prop_bfs_triangle_inequality;
      ] );
    ( "topology.hierarchy",
      [
        Alcotest.test_case "rejects a stub domain without exactly one uplink" `Quick
          test_hierarchy_rejects_two_gateway_links;
        Alcotest.test_case "split core routes are None" `Quick test_hierarchy_split_core;
        qtest prop_hierarchy_matches_bfs;
      ] );
  ]
