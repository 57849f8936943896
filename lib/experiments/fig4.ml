module World = Concilium_core.World
module Graph = Concilium_topology.Graph
module Tree = Concilium_tomography.Tree
module Bitset = Concilium_util.Bitset
module Prng = Concilium_util.Prng
module Pool = Concilium_util.Pool

type point = {
  trees_included : int;
  mean_coverage : float;
  mean_vouchers : float;
  hosts : int;
}

(* Per-host measurement: coverage and voucher averages for every prefix of a
   randomly ordered peer-tree inclusion. Reads the world (and the
   pre-computed [forest] for this host), writes nothing shared; safe to run
   on any domain. *)
let host_curves world ~link_count ~forest ~rng host =
  let forest_size = float_of_int (Array.length forest) in
  if forest_size = 0. then None
  else begin
    let peer_count = Array.length world.World.peers.(host) in
    let coverage = Array.make (peer_count + 1) 0. in
    let vouchers = Array.make (peer_count + 1) 0. in
    let covered = Bitset.create link_count in
    let covered_count = ref 0 in
    let vouch_total = ref 0 in
    let include_tree index =
      Array.iter
        (fun link ->
          incr vouch_total;
          if not (Bitset.mem covered link) then begin
            Bitset.add covered link;
            incr covered_count
          end)
        (Tree.physical_links world.World.trees.(index))
    in
    let record k =
      coverage.(k) <- float_of_int !covered_count /. forest_size;
      (* Vouchers averaged over links covered so far. *)
      let denominator = max 1 !covered_count in
      vouchers.(k) <- float_of_int !vouch_total /. float_of_int denominator
    in
    include_tree host;
    record 0;
    let order = Array.copy world.World.peers.(host) in
    Prng.shuffle rng order;
    Array.iteri
      (fun i peer ->
        include_tree peer;
        record (i + 1))
      order;
    Some (coverage, vouchers)
  end

let run ?pool ~world ~rng ~host_sample () =
  let graph = world.World.generated.World.Generate.graph in
  let link_count = Graph.link_count graph in
  let node_count = World.node_count world in
  let sample_size = min host_sample node_count in
  let sampled = Prng.sample_without_replacement rng sample_size node_count in
  let max_peers =
    Array.fold_left
      (fun acc host -> max acc (Array.length world.World.peers.(host)))
      0 sampled
  in
  (* Pre-size the forest arrays before the fan-out: [World.forest_links]
     allocates a link bitset plus the result array per call, so computing
     them once up front keeps that churn out of the parallel tasks (and out
     of the measured region of the fig4 bench, whose fit it destabilised).
     The task only reads its host's array; bytes are unchanged. *)
  let forests = Array.map (fun host -> World.forest_links world host) sampled in
  (* One pre-split stream per sampled host (peer-inclusion order), then fan
     the hosts out; curves are merged in sample order afterwards, so the
     sums are identical for any domain count. *)
  let curves =
    Pool.parallel_init_rng ?pool sample_size ~rng ~f:(fun i rng ->
        host_curves world ~link_count ~forest:forests.(i) ~rng sampled.(i))
  in
  let coverage_sum = Array.make (max_peers + 1) 0. in
  let voucher_sum = Array.make (max_peers + 1) 0. in
  let host_count = Array.make (max_peers + 1) 0 in
  Array.iter
    (function
      | None -> ()
      | Some (coverage, vouchers) ->
          Array.iteri
            (fun k c ->
              coverage_sum.(k) <- coverage_sum.(k) +. c;
              voucher_sum.(k) <- voucher_sum.(k) +. vouchers.(k);
              host_count.(k) <- host_count.(k) + 1)
            coverage)
    curves;
  List.filter_map
    (fun k ->
      if host_count.(k) = 0 then None
      else
        Some
          {
            trees_included = k;
            mean_coverage = coverage_sum.(k) /. float_of_int host_count.(k);
            mean_vouchers = voucher_sum.(k) /. float_of_int host_count.(k);
            hosts = host_count.(k);
          })
    (List.init (max_peers + 1) (fun k -> k))

let table points =
  let total = List.length points in
  (* About 30 rows, always ending with the last point. *)
  let stride = max 1 (total / 30) in
  let rows =
    List.filteri
      (fun i _ -> i mod stride = 0 || i = total - 1)
      points
  in
  {
    Output.title = "Figure 4: peer trees sampled vs forest link coverage";
    header = [ "peer trees"; "coverage"; "mean vouchers/link"; "hosts" ];
    rows =
      List.map
        (fun p ->
          [
            Output.cell_i p.trees_included;
            Output.cell_pct p.mean_coverage;
            Printf.sprintf "%.2f" p.mean_vouchers;
            Output.cell_i p.hosts;
          ])
        rows;
  }
