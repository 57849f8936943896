module Graph = Concilium_topology.Graph
module Routes = Concilium_topology.Routes
module Tree = Concilium_tomography.Tree
module Logical_tree = Concilium_tomography.Logical_tree
module Probing = Concilium_tomography.Probing
module Minc = Concilium_tomography.Minc
module Observation = Concilium_tomography.Observation
module Snapshot = Concilium_tomography.Snapshot
module Freshness = Concilium_overlay.Freshness
module Id = Concilium_overlay.Id
module Pki = Concilium_crypto.Pki
module Signed = Concilium_crypto.Signed
module Prng = Concilium_util.Prng

let check = Alcotest.check

(* A fixed binary-ish probe tree:
          0
          |        link 0
          1
        /   \      links 1, 2
       2     3
      / \     \    links 3, 4, 5
     4   5     6
   Leaves: 4, 5, 6 (routers). *)
let fixture_tree () =
  let b = Graph.Builder.create 7 in
  let links =
    [ (0, 1); (1, 2); (1, 3); (2, 4); (2, 5); (3, 6) ]
  in
  List.iter (fun (u, v) -> Graph.Builder.add_link b u v) links;
  let g = Graph.build b in
  let path target = Option.get (Routes.shortest_path g ~source:0 ~target) in
  let tree = Tree.of_paths ~root:0 ~paths:[| path 4; path 5; path 6 |] in
  (g, tree)

(* ---------- Tree ---------- *)

let test_tree_structure () =
  let _, tree = fixture_tree () in
  check Alcotest.int "nodes" 7 (Tree.node_count tree);
  check Alcotest.int "root" 0 (Tree.root tree);
  check Alcotest.int "leaf count" 3 (Tree.leaf_count tree);
  let leaf_routers = Array.init 3 (fun i -> Tree.router_of tree (Tree.leaf tree i)) in
  check (Alcotest.array Alcotest.int) "leaf routers" [| 4; 5; 6 |] leaf_routers;
  check Alcotest.int "six links" 6 (Array.length (Tree.physical_links tree))

(* Leaf i's stored path, as the physical links above its nodes. *)
let leaf_path_links tree i =
  let starts = Tree.path_starts tree in
  Array.init
    (starts.(i + 1) - starts.(i))
    (fun k -> Tree.parent_link tree (Tree.path_nodes tree).(starts.(i) + k))

let test_tree_paths_to_leaves () =
  let g, tree = fixture_tree () in
  check Alcotest.int "leaf 0 is router 4" 4 (Tree.router_of tree (Tree.leaf tree 0));
  let links = leaf_path_links tree 0 in
  check Alcotest.int "three hops" 3 (Array.length links);
  let expected =
    [|
      Option.get (Graph.link_between g 0 1);
      Option.get (Graph.link_between g 1 2);
      Option.get (Graph.link_between g 2 4);
    |]
  in
  check (Alcotest.array Alcotest.int) "root-down order" expected links;
  for i = 0 to Tree.leaf_count tree - 1 do
    check (Alcotest.array Alcotest.int) "stored path = parent walk"
      (Probing_oracle.path_links_to tree (Tree.leaf tree i))
      (leaf_path_links tree i)
  done

let test_tree_shared_prefix_dedup () =
  let _, tree = fixture_tree () in
  (* Routers 0,1,2 are shared by the paths to 4 and 5 but appear once. *)
  let routers = List.init (Tree.node_count tree) (Tree.router_of tree) in
  check Alcotest.int "no duplicates" (List.length routers)
    (List.length (List.sort_uniq Int.compare routers))

let test_tree_rejects_foreign_path () =
  let g, _ = fixture_tree () in
  let path = Option.get (Routes.shortest_path g ~source:1 ~target:4) in
  Alcotest.check_raises "wrong root" (Invalid_argument "Tree.of_paths: path does not start at root")
    (fun () -> ignore (Tree.of_paths ~root:0 ~paths:[| path |]))

(* ---------- Logical tree ---------- *)

let test_logical_collapse () =
  let _, tree = fixture_tree () in
  let logical = Logical_tree.of_tree tree in
  (* Kept: root(0), branch router 1, branch router 2, leaves 4,5,6.
     Router 3 is a pass-through and collapses into leaf 6's chain. *)
  check Alcotest.int "logical nodes" 6 (Logical_tree.node_count logical);
  check Alcotest.int "leaves" 3 (Logical_tree.leaf_count logical);
  let leaf6 = Logical_tree.leaf logical 2 in
  check Alcotest.int "collapsed chain length" 2 (Array.length (Logical_tree.chain logical leaf6))

(* The descendant-leaf sets the probing and MINC oracles scan. *)
let test_logical_descendants () =
  let _, tree = fixture_tree () in
  let logical = Logical_tree.of_tree tree in
  let descendants = Probing_oracle.descendant_leaves logical in
  check (Alcotest.array Alcotest.int) "root sees all leaves" [| 0; 1; 2 |] descendants.(0);
  let leaf0 = Logical_tree.leaf logical 0 in
  check (Alcotest.array Alcotest.int) "leaf sees itself" [| 0 |] descendants.(leaf0)

(* ---------- Probing ---------- *)

let test_probe_round_shared_fate () =
  let _, tree = fixture_tree () in
  let rng = Prng.of_seed 60L in
  (* Kill the shared root link: nobody can receive, ever. *)
  let loss_of_link link = if link = 0 then 1. else 0. in
  let round = Probing.probe_round ~rng ~loss_of_link ~tree () in
  check (Alcotest.array Alcotest.bool) "all lost" [| false; false; false |]
    round.Probing.received

let test_probe_round_perfect_network () =
  let _, tree = fixture_tree () in
  let rng = Prng.of_seed 61L in
  let round = Probing.probe_round ~rng ~loss_of_link:(fun _ -> 0.) ~tree () in
  check (Alcotest.array Alcotest.bool) "all received" [| true; true; true |]
    round.Probing.received;
  check (Alcotest.array Alcotest.bool) "all acked" [| true; true; true |] round.Probing.acked

let test_suppressing_leaf () =
  let _, tree = fixture_tree () in
  let rng = Prng.of_seed 62L in
  let behavior i = if i = 0 then Probing.Suppress_acks 1.0 else Probing.Honest in
  let round = Probing.probe_round ~rng ~loss_of_link:(fun _ -> 0.) ~tree ~behavior () in
  check Alcotest.bool "received" true round.Probing.received.(0);
  check Alcotest.bool "ack suppressed" false round.Probing.acked.(0)

let test_classify_round () =
  let _, tree = fixture_tree () in
  let logical = Logical_tree.of_tree tree in
  (* Leaves 4 and 5 acked; leaf 6 silent: the chain to 6 is Probed_down,
     everything on the acked paths is Probed_up. *)
  let verdicts = Probing.classify_round logical [| true; true; false |] in
  let leaf6 = Logical_tree.leaf logical 2 in
  check Alcotest.bool "chain to 6 down" true (verdicts.(leaf6) = Probing.Probed_down);
  let leaf4 = Logical_tree.leaf logical 0 in
  check Alcotest.bool "chain to 4 up" true (verdicts.(leaf4) = Probing.Probed_up);
  (* Nothing acked: everything indeterminate (can't tell first bad link). *)
  let silent = Probing.classify_round logical [| false; false; false |] in
  Array.iteri
    (fun node verdict ->
      if node > 0 then check Alcotest.bool "indeterminate" true (verdict = Probing.Indeterminate))
    silent

(* ---------- MINC ---------- *)

let minc_fixture ~loss_of_link ~rounds ~seed =
  let _, tree = fixture_tree () in
  let logical = Logical_tree.of_tree tree in
  let rng = Prng.of_seed seed in
  let observed = Probing.probe_rounds ~rng ~loss_of_link ~tree ~count:rounds () in
  (logical, Minc.infer_from_rounds logical observed)

let test_minc_lossless () =
  let _, estimate = minc_fixture ~loss_of_link:(fun _ -> 0.) ~rounds:200 ~seed:64L in
  Array.iteri
    (fun node success ->
      check (Alcotest.float 1e-9) (Printf.sprintf "node %d" node) 1. success)
    estimate.Minc.link_success

let test_minc_recovers_lossy_link () =
  let g, _ = fixture_tree () in
  let lossy = Option.get (Graph.link_between g 1 2) in
  let loss_of_link link = if link = lossy then 0.3 else 0.01 in
  let logical, estimate = minc_fixture ~loss_of_link ~rounds:4000 ~seed:65L in
  (* Find the logical node whose chain contains the lossy link. *)
  let found = ref false in
  for node = 1 to Logical_tree.node_count logical - 1 do
    if Array.exists (( = ) lossy) (Logical_tree.chain logical node) then begin
      found := true;
      check (Alcotest.float 0.05)
        (Printf.sprintf "inferred loss on node %d" node)
        0.3 (Minc.link_loss estimate node)
    end
  done;
  check Alcotest.bool "lossy link located" true !found

let test_minc_suspect_links () =
  let g, _ = fixture_tree () in
  let dead = Option.get (Graph.link_between g 2 5) in
  let loss_of_link link = if link = dead then 0.95 else 0.005 in
  let _, estimate = minc_fixture ~loss_of_link ~rounds:1500 ~seed:66L in
  let suspects = Minc.suspect_physical_links estimate ~loss_threshold:0.5 in
  check (Alcotest.list Alcotest.int) "exactly the dead link" [ dead ] suspects

let test_minc_rejects_empty () =
  let _, tree = fixture_tree () in
  let logical = Logical_tree.of_tree tree in
  Alcotest.check_raises "no rounds" (Invalid_argument "Minc.infer: no rounds") (fun () ->
      ignore (Minc.infer logical ~acked:[||]))

(* ---------- Observation ---------- *)

(* One round of [prober] over the fixture tree, into the store and, vote by
   vote in insertion order, into the list oracle: [votes] are (link, up)
   verdicts on tree links (at most one per link), [forged] extra reports
   on any link. *)
let record_round ?oracle store tree ~time ~prober ~votes ~forged =
  let verdicts = Bytes.make (Tree.node_count tree) Observation.no_vote in
  List.iter
    (fun (link, up) ->
      Bytes.set verdicts (Tree.node_of_link tree link)
        (if up then Observation.up_vote else Observation.down_vote))
    votes;
  Observation.record store ~prober ~time ~verdicts ~forged;
  Option.iter
    (fun oracle ->
      List.iter
        (fun (link, up) -> Observation_oracle.record oracle { Observation.time; prober; link; up })
        (votes @ forged))
    oracle

(* A store of six probers that all probe the fixture tree (links 0 to 5);
   [report] records a round of one vote, a forged one when the link is
   outside the tree. *)
let fixture_store () =
  let _, tree = fixture_tree () in
  let store = Observation.create (Array.make 6 tree) in
  let report (time, prober, link, up) =
    if Tree.node_of_link tree link >= 0 then
      record_round store tree ~time ~prober ~votes:[ (link, up) ] ~forged:[]
    else record_round store tree ~time ~prober ~votes:[] ~forged:[ (link, up) ]
  in
  (store, report)

let all_probers = Array.init 6 Fun.id

let window_votes ?(exclude = -1) store ~link ~lo ~hi =
  (Observation.window store ~probers:all_probers ~exclude ~links:[| link |] ~lo ~hi)
    .Observation.votes.(0)

let test_observation_window_queries () =
  let store, report = fixture_store () in
  List.iter report [ (10., 1, 5, true); (20., 2, 5, false); (30., 1, 5, true); (20., 1, 7, true) ];
  check Alcotest.int "count" 4 (Observation.count store);
  let window = window_votes store ~link:5 ~lo:15. ~hi:30. in
  check Alcotest.int "windowed" 2 (List.length window);
  check (Alcotest.float 1e-9) "insertion order" 20. (List.hd window).Observation.time;
  let without_1 =
    Observation.window store ~probers:all_probers ~exclude:1 ~links:[| 5; 7 |] ~lo:15. ~hi:30.
  in
  check Alcotest.int "excluded prober's votes counted" 2 without_1.Observation.excluded;
  check Alcotest.int "the rest kept" 1 (List.length without_1.Observation.votes.(0));
  check Alcotest.int "unseen prober" 1
    (List.length
       (Observation.window store ~probers:[| 1 |] ~exclude:(-1) ~links:[| 5 |] ~lo:15. ~hi:30.)
         .Observation.votes.(0));
  (* Prober 1's round at 20 follows its round at 30, whose running maximum
     keeps it; prober 2's ring is emptied. *)
  Observation.prune_before store 25.;
  check Alcotest.int "pruned" 2 (Observation.count store)

let observation_times store ~link ~lo ~hi =
  List.map (fun obs -> obs.Observation.time) (window_votes store ~link ~lo ~hi)

let test_observation_late_stamps () =
  (* A heavy burst judged after later probe rounds stamps drop + Delta, so
     a window holds its votes in insertion order, not time order; pruning
     cuts only the prefix whose running maximum is behind the horizon. *)
  let store, report = fixture_store () in
  List.iter (fun time -> report (time, 1, 2, true)) [ 10.; 100.; 50.; 120.; 60. ];
  check
    Alcotest.(list (float 0.))
    "insertion order" [ 100.; 50.; 60. ]
    (observation_times store ~link:2 ~lo:40. ~hi:110.);
  Observation.prune_before store 55.;
  check Alcotest.int "only the prefix behind 55 is cut" 4 (Observation.count store);
  check
    Alcotest.(list (float 0.))
    "window at the horizon unchanged" [ 100.; 60. ]
    (observation_times store ~link:2 ~lo:55. ~hi:110.)

let test_observation_guard () =
  let store, report = fixture_store () in
  report (30., 1, 5, true);
  Observation.prune_before store 25.;
  let behind = Invalid_argument "Observation.window: window starts behind the pruned horizon" in
  Alcotest.check_raises "window behind the horizon" behind (fun () ->
      ignore (window_votes store ~link:5 ~lo:(Float.pred 25.) ~hi:30.));
  check Alcotest.int "window at the horizon" 1
    (List.length (window_votes store ~link:5 ~lo:25. ~hi:30.));
  (* A lower horizon prunes nothing and does not reopen the pruned past. *)
  Observation.prune_before store 10.;
  Alcotest.check_raises "horizon never moves back" behind (fun () ->
      ignore (window_votes store ~link:5 ~lo:20. ~hi:30.))

(* Random interleavings of the protocol's store traffic on the fixture
   tree: rounds stamped now, rounds stamped behind now (a heavy burst's
   drop + Delta under control delay), each with random verdicts and
   forged reports (repeats, and links outside the tree), prunes at
   non-decreasing horizons and window queries at or above the horizon for
   random prober sets. The rounds must answer every query exactly as the
   list oracle does, in the same order, and never hold fewer live votes
   than it. *)
type store_op =
  | Advance of float
  | Round of float * int * (int * bool) list * (int * bool) list
      (** lag behind now, prober, tree votes, forged reports *)
  | Prune of float  (** horizon step *)
  | Query of int list * int * float * float
      (** probers, excluded prober, lo above the horizon, window width *)

let arbitrary_store_ops =
  let open QCheck.Gen in
  let halves n = map (fun k -> float_of_int k /. 2.) (int_bound n) in
  (* At most one tree vote per link: a round's verdicts are one byte per
     tree node. *)
  let tree_votes =
    map
      (fun picks -> List.filter_map (fun (link, vote) -> Option.map (fun up -> (link, up)) vote) picks)
      (flatten_l (List.init 6 (fun link -> map (fun vote -> (link, vote)) (opt ~ratio:0.4 bool))))
  in
  let op =
    frequency
      [
        (3, map (fun step -> Advance step) (halves 20));
        ( 8,
          map
            (fun ((lag, prober), (votes, forged)) -> Round (lag, prober, votes, forged))
            (pair
               (pair (frequency [ (3, return 0.); (1, halves 400) ]) (int_bound 5))
               (pair tree_votes (list_size (int_bound 3) (pair (int_bound 7) bool)))) );
        (1, map (fun step -> Prune step) (halves 60));
        ( 2,
          map
            (fun ((probers, exclude), (offset, width)) -> Query (probers, exclude, offset, width))
            (pair
               (pair (list_size (int_bound 6) (int_bound 5)) (int_range (-1) 5))
               (pair (halves 200) (halves 200))) );
      ]
  in
  let votes_string votes =
    String.concat "," (List.map (fun (link, up) -> Printf.sprintf "%d:%b" link up) votes)
  in
  let print ops =
    String.concat "; "
      (List.map
         (function
           | Advance step -> Printf.sprintf "advance %g" step
           | Round (lag, prober, votes, forged) ->
               Printf.sprintf "round lag=%g prober=%d votes=[%s] forged=[%s]" lag prober
                 (votes_string votes) (votes_string forged)
           | Prune step -> Printf.sprintf "prune +%g" step
           | Query (probers, exclude, offset, width) ->
               Printf.sprintf "query probers=[%s] exclude=%d lo=horizon+%g width=%g"
                 (String.concat "," (List.map string_of_int probers))
                 exclude offset width)
         ops)
  in
  QCheck.make ~print (list_size (int_range 1 200) op)

let prop_observation_matches_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"rounds answer every window as the list oracle" ~count:300
       arbitrary_store_ops (fun ops ->
         let _, tree = fixture_tree () in
         let store = Observation.create (Array.make 6 tree) and oracle = Observation_oracle.create () in
         let now = ref 0. and horizon = ref 0. in
         let links = Array.init 8 Fun.id in
         List.for_all
           (function
             | Advance step ->
                 now := !now +. step;
                 true
             | Round (lag, prober, votes, forged) ->
                 record_round ~oracle store tree ~time:(!now -. lag) ~prober ~votes ~forged;
                 true
             | Prune step ->
                 horizon := !horizon +. step;
                 Observation.prune_before store !horizon;
                 Observation_oracle.prune_before oracle !horizon;
                 Observation.count store >= Observation_oracle.count oracle
             | Query (probers, exclude, offset, width) ->
                 let probers = Array.of_list (List.sort_uniq Int.compare probers) in
                 let lo = !horizon +. offset in
                 let hi = lo +. width in
                 let window = Observation.window store ~probers ~exclude ~links ~lo ~hi in
                 let visible (obs : Observation.observation) = Array.mem obs.prober probers in
                 let expected =
                   Array.map
                     (fun link -> List.filter visible (Observation_oracle.on_link oracle ~link ~lo ~hi))
                     links
                 in
                 let excluded =
                   Array.fold_left
                     (fun acc votes ->
                       acc
                       + List.length
                           (List.filter (fun (obs : Observation.observation) -> obs.prober = exclude) votes))
                     0 expected
                 in
                 window.Observation.votes
                 = Array.map
                     (List.filter (fun (obs : Observation.observation) -> obs.prober <> exclude))
                     expected
                 && window.Observation.excluded = excluded)
           ops))

(* ---------- Snapshot ---------- *)

let snapshot_fixture () =
  let pki = Pki.create ~seed:70L in
  let origin = Id.random (Prng.of_seed 71L) in
  let peer = Id.random (Prng.of_seed 72L) in
  let origin_cert, origin_secret = Pki.issue pki ~address:"o" ~node_id:(Id.to_hex origin) in
  let peer_cert, peer_secret = Pki.issue pki ~address:"p" ~node_id:(Id.to_hex peer) in
  let stamp = Freshness.issue ~holder:peer ~secret:peer_secret ~public:peer_cert.Pki.subject_key ~now:99. in
  let summary = { Snapshot.peer; loss_level = 0; freshness = stamp } in
  let snapshot =
    Snapshot.make ~origin ~secret:origin_secret ~public:origin_cert.Pki.subject_key ~now:100.
      ~summaries:[ summary ]
  in
  (pki, snapshot)

let test_snapshot_sign_verify () =
  let pki, snapshot = snapshot_fixture () in
  check Alcotest.bool "verifies" true (Snapshot.verify pki snapshot);
  let body = Signed.payload snapshot in
  let tampered =
    Signed.forge ~signer:(Signed.signer snapshot)
      ~fake_signature:(Pki.signature_of_string "bogus")
      { body with Snapshot.issued_at = 500. }
  in
  check Alcotest.bool "tampered rejected" false (Snapshot.verify pki tampered)

let test_snapshot_wire_size () =
  let _, snapshot = snapshot_fixture () in
  let entries = List.length (Signed.payload snapshot).Snapshot.summaries in
  (* 1 entry: header 20 + 145 + signature 128, as the protocol charges it. *)
  check Alcotest.int "wire bytes" (20 + 145 + 128)
    (Concilium_core.Bandwidth.advert_bytes ~entries)

(* ---------- Probe sharing (Section 3.7) ---------- *)

module Probe_sharing = Concilium_tomography.Probe_sharing

let test_probe_sharing_amortization () =
  (* Two identical trees: consolidation halves the cost. Disjoint trees:
     no saving. *)
  let trees = [| [| 1; 2; 3 |]; [| 1; 2; 3 |]; [| 7; 8 |] |] in
  let same = Probe_sharing.plan ~trees ~members:[| 0; 1 |] in
  check Alcotest.int "individual" 6 same.Probe_sharing.individual_links;
  check Alcotest.int "consolidated" 3 same.Probe_sharing.consolidated_links;
  check (Alcotest.float 1e-9) "half" 0.5 same.Probe_sharing.amortization;
  let disjoint = Probe_sharing.plan ~trees ~members:[| 0; 2 |] in
  check (Alcotest.float 1e-9) "no saving" 1. disjoint.Probe_sharing.amortization;
  check (Alcotest.float 1e-9) "bytes scale" 100.
    (Probe_sharing.individual_bytes disjoint ~per_tree_bytes:50.);
  check (Alcotest.float 1e-9) "consolidated bytes" 50.
    (Probe_sharing.consolidated_bytes same ~per_tree_bytes:50.)

(* Property: MINC recovers random per-chain loss rates on the fixture tree
   within sampling error, for arbitrary loss assignments. *)
let prop_minc_recovers_random_losses =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"MINC recovers random loss assignments" ~count:8
       QCheck.(int_range 0 100_000)
       (fun seed ->
         let _, tree = fixture_tree () in
         let logical = Logical_tree.of_tree tree in
         let loss_rng = Prng.of_seed (Int64.of_int seed) in
         let losses = Hashtbl.create 8 in
         Array.iter
           (fun link -> Hashtbl.replace losses link (Prng.float loss_rng 0.25))
           (Tree.physical_links tree)
         |> ignore;
         let loss_of_link link = Hashtbl.find losses link in
         let rng = Prng.of_seed (Int64.of_int (seed + 1)) in
         let rounds = Probing.probe_rounds ~rng ~loss_of_link ~tree ~count:5000 () in
         let estimate = Minc.infer_from_rounds logical rounds in
         let ok = ref true in
         for node = 1 to Logical_tree.node_count logical - 1 do
           let chain = Logical_tree.chain logical node in
           let true_loss =
             1. -. Array.fold_left (fun acc l -> acc *. (1. -. loss_of_link l)) 1. chain
           in
           if abs_float (Minc.link_loss estimate node -. true_loss) > 0.06 then ok := false
         done;
         !ok))

(* Property: the single-sweep [Minc.infer] and the O(rounds * nodes *
   leaves) oracle (test/minc_oracle.ml) count the same subtree acks on
   arbitrary random trees and ack matrices, and the rest of an estimate is
   a function of those rates. Gamma comes from integer hit counts in both,
   so equality is exact, not approximate. *)
let prop_minc_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"MINC sweep matches reference oracle" ~count:40
       QCheck.(int_range 0 1_000_000)
       (fun seed ->
         let rng = Prng.of_seed (Int64.of_int seed) in
         (* Random rooted tree: router i > 0 hangs off a random earlier
            router, so parent indices always precede children. *)
         let n = 4 + Prng.int rng 37 in
         let b = Graph.Builder.create n in
         let has_child = Array.make n false in
         for i = 1 to n - 1 do
           let parent = Prng.int rng i in
           has_child.(parent) <- true;
           Graph.Builder.add_link b parent i
         done;
         let g = Graph.build b in
         let leaves =
           Array.of_list
             (List.filter (fun i -> not has_child.(i)) (List.init n (fun i -> i)))
         in
         let path target =
           match Routes.shortest_path g ~source:0 ~target with
           | Some p -> p
           | None -> invalid_arg "random tree is connected by construction"
         in
         let tree = Tree.of_paths ~root:0 ~paths:(Array.map path leaves) in
         let logical = Logical_tree.of_tree tree in
         let leaf_count = Logical_tree.leaf_count logical in
         let rounds = 1 + Prng.int rng 50 in
         let acked =
           Array.init rounds (fun _ -> Array.init leaf_count (fun _ -> Prng.bool rng))
         in
         (Minc.infer logical ~acked).Minc.gamma = Minc_oracle.gamma logical ~acked))

(* A random probe setup from [rng]: a tree whose leaves may lie on other
   leaves' paths (any router but the root may be a peer, interior ones
   included, in random order and with repeats), per-link loss rates that
   include 0 and 1, and random ack suppression. *)
let random_probe_setup rng =
  let n = 2 + Prng.int rng 40 in
  let b = Graph.Builder.create n in
  for i = 1 to n - 1 do
    Graph.Builder.add_link b (Prng.int rng i) i
  done;
  let g = Graph.build b in
  let targets = Array.init (1 + Prng.int rng (2 * n)) (fun _ -> 1 + Prng.int rng (n - 1)) in
  let path target = Option.get (Routes.shortest_path g ~source:0 ~target) in
  let tree = Tree.of_paths ~root:0 ~paths:(Array.map path targets) in
  let rate () = match Prng.int rng 3 with 0 -> 0. | 1 -> 1. | _ -> Prng.uniform rng in
  let losses = Array.init (Graph.link_count g) (fun _ -> rate ()) in
  let suppress =
    Array.init (Tree.leaf_count tree) (fun _ ->
        if Prng.bool rng then Probing.Suppress_acks (rate ()) else Probing.Honest)
  in
  (tree, Logical_tree.of_tree tree, (fun link -> losses.(link)), fun i -> suppress.(i))

(* Property: the flat-path kernel and the table-of-fates oracle
   (test/probing_oracle.ml) return the same rounds and verdicts and leave
   the generator in the same state, on random probe setups. *)
let prop_probe_kernel_matches_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"probe kernel matches the table oracle" ~count:300
       QCheck.(int_range 0 1_000_000)
       (fun seed ->
         let rng = Prng.of_seed (Int64.of_int seed) in
         let tree, logical, loss_of_link, behavior = random_probe_setup rng in
         let random_acked = Array.init (Tree.leaf_count tree) (fun _ -> Prng.bool rng) in
         let probe_seed = Prng.int64 rng in
         let kernel_rng = Prng.of_seed probe_seed and oracle_rng = Prng.of_seed probe_seed in
         let same_verdicts acked =
           Probing.classify_round logical acked = Probing_oracle.classify_round logical acked
         in
         same_verdicts random_acked
         && List.for_all
              (fun _ ->
                let round = Probing.probe_round ~rng:kernel_rng ~loss_of_link ~tree ~behavior () in
                let expected =
                  Probing_oracle.probe_round ~rng:oracle_rng ~loss_of_link ~tree ~behavior
                in
                round.Probing.received = expected.Probing.received
                && round.Probing.acked = expected.Probing.acked
                && same_verdicts round.Probing.acked)
              [ 1; 2; 3; 4 ]
         && Int64.equal (Prng.int64 kernel_rng) (Prng.int64 oracle_rng)))

(* Property: the kernel drawing into buffers it shares across rounds, as
   the protocol's rounds and bursts do (longer than the tree needs and
   holding the previous round), matches the oracle round after round on
   acks and verdicts, leaves the entries past the tree alone and leaves
   the generator where the oracle leaves it. *)
let prop_buffer_kernel_matches_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"buffer kernel matches the table oracle" ~count:300
       QCheck.(int_range 0 1_000_000)
       (fun seed ->
         let rng = Prng.of_seed (Int64.of_int seed) in
         let tree, logical, loss_of_link, behavior = random_probe_setup rng in
         let leaves = Tree.leaf_count tree and count = Logical_tree.node_count logical in
         let spare = 1 + Prng.int rng 5 in
         let fates = Bytes.make (Tree.node_count tree + spare) '\007' in
         let received = Array.init (leaves + spare) (fun _ -> Prng.bool rng) in
         let acked = Array.init (leaves + spare) (fun _ -> Prng.bool rng) in
         let verdicts = Array.make (count + spare) Probing.Probed_down in
         let tail a from = Array.sub a from (Array.length a - from) in
         let received_tail = tail received leaves and acked_tail = tail acked leaves in
         let probe_seed = Prng.int64 rng in
         let kernel_rng = Prng.of_seed probe_seed and oracle_rng = Prng.of_seed probe_seed in
         List.for_all
           (fun _ ->
             Probing.draw ~rng:kernel_rng ~loss_of_link ~tree ~behavior ~fates ~received ~acked;
             let expected = Probing_oracle.probe_round ~rng:oracle_rng ~loss_of_link ~tree ~behavior in
             Probing.classify_into logical acked verdicts;
             Array.sub received 0 leaves = expected.Probing.received
             && Array.sub acked 0 leaves = expected.Probing.acked
             && Array.sub verdicts 0 count
                = Probing_oracle.classify_round logical expected.Probing.acked
             && tail received leaves = received_tail
             && tail acked leaves = acked_tail
             && tail verdicts count = Array.make spare Probing.Probed_down
             && Bytes.sub_string fates (Tree.node_count tree) spare = String.make spare '\007')
           [ 1; 2; 3; 4; 5; 6 ]
         && Int64.equal (Prng.int64 kernel_rng) (Prng.int64 oracle_rng)))

(* Property: folding each round into MINC's counts as the kernel draws it,
   as a heavy burst does, gives an estimate bit-equal to [Minc.infer] over
   the ack matrix of the same rounds, and its subtree-ack rates are the
   quadratic oracle's (test/minc_oracle.ml). *)
let prop_minc_folded_counts_match_infer =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"folded counts estimate as infer" ~count:100
       QCheck.(int_range 0 1_000_000)
       (fun seed ->
         let rng = Prng.of_seed (Int64.of_int seed) in
         let tree, logical, loss_of_link, behavior = random_probe_setup rng in
         let leaves = Tree.leaf_count tree in
         let fates = Bytes.create (Tree.node_count tree) in
         let received = Array.make leaves false and acked = Array.make leaves false in
         let counts = Minc.counts logical in
         let matrix =
           Array.init (1 + Prng.int rng 60) (fun _ ->
               Probing.draw ~rng ~loss_of_link ~tree ~behavior ~fates ~received ~acked;
               Minc.add_round counts acked;
               Array.copy acked)
         in
         let folded = Minc.estimate counts and inferred = Minc.infer logical ~acked:matrix in
         let bits a = Array.map Int64.bits_of_float a in
         Minc.rounds counts = Array.length matrix
         && bits folded.Minc.gamma = bits inferred.Minc.gamma
         && bits folded.Minc.path_success = bits inferred.Minc.path_success
         && bits folded.Minc.link_success = bits inferred.Minc.link_success
         && bits folded.Minc.gamma = bits (Minc_oracle.gamma logical ~acked:matrix)))

let suites =
  [
    ( "tomography.tree",
      [
        Alcotest.test_case "structure" `Quick test_tree_structure;
        Alcotest.test_case "paths to leaves" `Quick test_tree_paths_to_leaves;
        Alcotest.test_case "shared prefixes deduplicated" `Quick test_tree_shared_prefix_dedup;
        Alcotest.test_case "rejects foreign paths" `Quick test_tree_rejects_foreign_path;
      ] );
    ( "tomography.logical_tree",
      [
        Alcotest.test_case "chain collapse" `Quick test_logical_collapse;
        Alcotest.test_case "descendant leaves" `Quick test_logical_descendants;
      ] );
    ( "tomography.probing",
      [
        Alcotest.test_case "striping shares fate" `Quick test_probe_round_shared_fate;
        Alcotest.test_case "perfect network" `Quick test_probe_round_perfect_network;
        Alcotest.test_case "ack suppression" `Quick test_suppressing_leaf;
        Alcotest.test_case "lightweight classification" `Quick test_classify_round;
        prop_probe_kernel_matches_oracle;
        prop_buffer_kernel_matches_oracle;
      ] );
    ( "tomography.minc",
      [
        prop_minc_recovers_random_losses;
        prop_minc_matches_reference;
        prop_minc_folded_counts_match_infer;
        Alcotest.test_case "lossless tree" `Quick test_minc_lossless;
        Alcotest.test_case "recovers a lossy interior link" `Quick test_minc_recovers_lossy_link;
        Alcotest.test_case "suspect link extraction" `Quick test_minc_suspect_links;
        Alcotest.test_case "rejects empty input" `Quick test_minc_rejects_empty;
      ] );
    ( "tomography.observation",
      [
        Alcotest.test_case "window queries and pruning" `Quick test_observation_window_queries;
        Alcotest.test_case "late stamps keep insertion order" `Quick test_observation_late_stamps;
        Alcotest.test_case "query behind the horizon raises" `Quick test_observation_guard;
        prop_observation_matches_oracle;
      ] );
    ( "tomography.snapshot",
      [
        Alcotest.test_case "sign and verify" `Quick test_snapshot_sign_verify;
        Alcotest.test_case "wire size model" `Quick test_snapshot_wire_size;
      ] );
    ( "tomography.probe_sharing",
      [
        Alcotest.test_case "amortization" `Quick test_probe_sharing_amortization;
      ] );
  ]

