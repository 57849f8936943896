module Prng = Concilium_util.Prng

type leaf_behavior = Honest | Suppress_acks of float

type round = { received : bool array; acked : bool array }

let probe_round ~rng ~loss_of_link ~tree ?(behavior = fun _ -> Honest) () =
  let leaves = Tree.leaves tree in
  let leaf_count = Array.length leaves in
  (* One Bernoulli draw per physical link per round: the striped packets
     share fate on shared links, emulating multicast. *)
  let link_fate = Hashtbl.create 64 in
  let link_passes link =
    match Hashtbl.find_opt link_fate link with
    | Some pass -> pass
    | None ->
        let pass = not (Prng.bernoulli rng (loss_of_link link)) in
        Hashtbl.replace link_fate link pass;
        pass
  in
  let received = Array.make leaf_count false in
  let acked = Array.make leaf_count false in
  Array.iteri
    (fun leaf_index leaf_node ->
      let links = Tree.path_links_to tree leaf_node in
      let got_it = Array.for_all link_passes links in
      received.(leaf_index) <- got_it;
      match behavior leaf_index with
      | Honest -> acked.(leaf_index) <- got_it
      | Suppress_acks p -> acked.(leaf_index) <- got_it && not (Prng.bernoulli rng p))
    leaves;
  { received; acked }

let probe_rounds ~rng ~loss_of_link ~tree ?(behavior = fun _ -> Honest) ~count () =
  Array.init count (fun _ -> probe_round ~rng ~loss_of_link ~tree ~behavior ())

let acked_matrix rounds = Array.map (fun r -> r.acked) rounds

type link_verdict = Probed_up | Probed_down | Indeterminate

let classify_round logical acked =
  let count = Logical_tree.node_count logical in
  let subtree_acked = Array.make count false in
  for node = 0 to count - 1 do
    subtree_acked.(node) <-
      Array.exists (fun leaf_index -> acked.(leaf_index)) (Logical_tree.descendant_leaves logical node)
  done;
  Array.init count (fun node ->
      if node = 0 then Indeterminate
      else if subtree_acked.(node) then Probed_up
      else if subtree_acked.(Logical_tree.parent logical node) then Probed_down
      else Indeterminate)

let schedule_jitter ~rng ~max_probe_time =
  if max_probe_time <= 0. then invalid_arg "Probing.schedule_jitter: non-positive max";
  Prng.float rng max_probe_time
