module Prng = Concilium_util.Prng
module Pool = Concilium_util.Pool
module Blame = Concilium_core.Blame

type row = {
  label : string;
  overall_accuracy : float;
  network_fault_accuracy : float;
  node_fault_accuracy : float;
}

type result = {
  rows : row list;
  network_fault_samples : int;
  node_fault_samples : int;
}

(* Like Blame_world.run, the rejection-sampled draws are split into shards
   with pre-split streams whose count depends only on the workload (a
   domain-count-derived split would change the byte stream and break
   `--domains N` identity): at least 64 samples per shard, capped at 256
   shards. The counters sum identically however the shards are
   scheduled. *)
let shard_count ~samples = min 256 (max 1 (samples / 64))

let run_shard blame_world ~rng ~quota =
  (* Counters: (says-network when network, says-node when node). *)
  let network_total = ref 0 and node_total = ref 0 in
  let concilium_network = ref 0 and concilium_node = ref 0 in
  let collected = ref 0 and attempts = ref 0 in
  while !collected < quota && !attempts < 200 * quota do
    incr attempts;
    match Blame_world.sample_judgment blame_world ~rng with
    | None -> ()
    | Some judgment ->
        incr collected;
        let says_node =
          judgment.Blame_world.blame >= Blame.paper_config.Blame.guilt_threshold
        in
        if judgment.Blame_world.path_actually_good then begin
          (* Ground truth: the forwarder dropped it. *)
          incr node_total;
          if says_node then incr concilium_node
        end
        else begin
          incr network_total;
          if not says_node then incr concilium_network
        end
  done;
  (!network_total, !node_total, !concilium_network, !concilium_node)

let run ?pool blame_world ~samples =
  let config = Blame_world.config blame_world in
  let rng = Prng.of_seed (Int64.add config.Blame_world.seed 0xBA5EL) in
  let shard_count = shard_count ~samples in
  let quota i = (samples / shard_count) + (if i < samples mod shard_count then 1 else 0) in
  let shards =
    Pool.parallel_init_rng ?pool shard_count ~rng ~f:(fun i rng ->
        run_shard blame_world ~rng ~quota:(quota i))
  in
  let network_total = ref 0 and node_total = ref 0 in
  let concilium_network = ref 0 and concilium_node = ref 0 in
  Array.iter
    (fun (network, node, c_network, c_node) ->
      network_total := !network_total + network;
      node_total := !node_total + node;
      concilium_network := !concilium_network + c_network;
      concilium_node := !concilium_node + c_node)
    shards;
  let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den in
  let total = !network_total + !node_total in
  let overall_of ~network_correct ~node_correct =
    ratio (network_correct + node_correct) total
  in
  let concilium =
    {
      label = "Concilium (Eq. 2, 40% threshold)";
      overall_accuracy = overall_of ~network_correct:!concilium_network ~node_correct:!concilium_node;
      network_fault_accuracy = ratio !concilium_network !network_total;
      node_fault_accuracy = ratio !concilium_node !node_total;
    }
  in
  (* RON: every drop is the network's fault. *)
  let ron =
    {
      label = "RON-style (always blame network)";
      overall_accuracy = overall_of ~network_correct:!network_total ~node_correct:0;
      network_fault_accuracy = 1.;
      node_fault_accuracy = 0.;
    }
  in
  (* Naive: every drop convicts the next hop. *)
  let naive =
    {
      label = "Naive (always blame next hop)";
      overall_accuracy = overall_of ~network_correct:0 ~node_correct:!node_total;
      network_fault_accuracy = 0.;
      node_fault_accuracy = 1.;
    }
  in
  {
    rows = [ concilium; ron; naive ];
    network_fault_samples = !network_total;
    node_fault_samples = !node_total;
  }

let table result =
  {
    Output.title =
      Printf.sprintf
        "Baselines: per-drop diagnosis accuracy vs ground truth (%d network-fault, %d \
         node-fault drops)"
        result.network_fault_samples result.node_fault_samples;
    header = [ "diagnoser"; "overall"; "on network faults"; "on node faults" ];
    rows =
      List.map
        (fun row ->
          [
            row.label;
            Output.cell_pct row.overall_accuracy;
            Output.cell_pct row.network_fault_accuracy;
            Output.cell_pct row.node_fault_accuracy;
          ])
        result.rows;
  }
