type estimate = {
  logical : Logical_tree.t;
  rounds : int;
  gamma : float array;
  path_success : float array;
  link_success : float array;
}

(* Root of g(a) = (1 - gamma_k/a) - prod_j (1 - gamma_j/a) in (lo, 1].
   g(lo) <= 0 at lo = gamma_k and g is increasing towards 1 under the
   positive correlation the shared link induces; sampling noise can leave
   g(1) < 0, in which case the MLE clips to 1. *)
let solve_node ~gamma_k ~child_gammas =
  if gamma_k <= 0. then 0.
  else begin
    let g a =
      let product =
        Array.fold_left (fun acc gamma_j -> acc *. (1. -. (gamma_j /. a))) 1. child_gammas
      in
      1. -. (gamma_k /. a) -. product
    in
    if g 1. < 0. then 1.
    else begin
      (* Bisection with an early exit: the bracket starts at most 1 wide, so
         the tolerance is reached within ~40 halvings; the iteration cap only
         guards against pathological floating-point stalls. *)
      let lo = ref gamma_k and hi = ref 1. in
      let iterations = ref 0 in
      while !hi -. !lo > 1e-12 && !iterations < 60 do
        incr iterations;
        let mid = 0.5 *. (!lo +. !hi) in
        if g mid < 0. then lo := mid else hi := mid
      done;
      0.5 *. (!lo +. !hi)
    end
  end

(* Per-node subtree-ack counts over the rounds folded so far. [reached]
   is one round's marks, reused. *)
type counts = {
  tree : Logical_tree.t;
  hits : int array;
  reached : bool array;
  mutable rounds : int;
}

let counts logical =
  let count = Logical_tree.node_count logical in
  { tree = logical; hits = Array.make count 0; reached = Array.make count false; rounds = 0 }

let rounds counts = counts.rounds

(* gamma_k counts rounds in which some leaf below k acked. One bottom-up
   sweep per round marks each acked leaf's logical node and propagates the
   mark to its parent: children carry larger indices than parents (see
   Logical_tree.parent), so one reverse pass reaches every ancestor.
   O(nodes) per round, where scanning each node's descendant leaves costs
   O(nodes * leaves). *)
let add_round counts acked =
  let hits = counts.hits and reached = counts.reached in
  let parents = Logical_tree.parents counts.tree and leaves = Logical_tree.leaves counts.tree in
  let count = Array.length hits in
  Array.fill reached 0 count false;
  for leaf = 0 to Array.length leaves - 1 do
    if acked.(leaf) then reached.(leaves.(leaf)) <- true
  done;
  for node = count - 1 downto 1 do
    if reached.(node) then begin
      hits.(node) <- hits.(node) + 1;
      reached.(parents.(node)) <- true
    end
  done;
  if reached.(0) then hits.(0) <- hits.(0) + 1;
  counts.rounds <- counts.rounds + 1

(* Turn per-node subtree-ack counts into the MLE estimate. *)
let estimate_of_counts { tree = logical; hits; rounds; _ } =
  if rounds = 0 then invalid_arg "Minc.infer: no rounds";
  let count = Logical_tree.node_count logical in
  let gamma = Array.map (fun h -> float_of_int h /. float_of_int rounds) hits in
  let path_success = Array.make count 1. in
  for node = 0 to count - 1 do
    let children = Logical_tree.children logical node in
    if node = 0 then path_success.(0) <- 1.
    else if Array.length children = 0 then path_success.(node) <- gamma.(node)
    else begin
      let child_gammas = Array.map (fun child -> gamma.(child)) children in
      path_success.(node) <- solve_node ~gamma_k:gamma.(node) ~child_gammas
    end
  done;
  let link_success =
    Array.init count (fun node ->
        if node = 0 then 1.
        else begin
          let parent_success = path_success.(Logical_tree.parent logical node) in
          if parent_success <= 0. then 0.
          else min 1. (max 0. (path_success.(node) /. parent_success))
        end)
  in
  { logical; rounds; gamma; path_success; link_success }

let estimate ?(trace = Concilium_obs.Trace.noop) ?parent ?(time = 0.) counts =
  let module Trace = Concilium_obs.Trace in
  let span =
    Trace.span_open trace ~time ~cat:"tomography" ?parent
      ~args:
        [
          ("rounds", Trace.Int counts.rounds);
          ("nodes", Trace.Int (Logical_tree.node_count counts.tree));
        ]
      "minc.solve"
  in
  let estimate = estimate_of_counts counts in
  Trace.span_close trace ~time
    ~args:[ ("root_gamma", Trace.Float estimate.gamma.(0)) ]
    span;
  estimate

let infer logical ~acked =
  let leaf_count = Logical_tree.leaf_count logical in
  Array.iter
    (fun vector ->
      if Array.length vector <> leaf_count then
        invalid_arg "Minc.infer: ack vector width mismatch")
    acked;
  let counts = counts logical in
  Array.iter (add_round counts) acked;
  estimate_of_counts counts

let link_loss estimate node = 1. -. estimate.link_success.(node)

let suspect_physical_links estimate ~loss_threshold =
  let out = ref [] in
  for node = 1 to Logical_tree.node_count estimate.logical - 1 do
    if link_loss estimate node > loss_threshold then
      Array.iter (fun link -> out := link :: !out) (Logical_tree.chain estimate.logical node)
  done;
  List.sort_uniq Int.compare !out

let infer_from_rounds logical rounds = infer logical ~acked:(Probing.acked_matrix rounds)
