type observation = { time : float; prober : int; link : int; up : bool }

let no_vote = '\000'
let up_vote = '\001'
let down_vote = '\002'

(* One prober's rounds in insertion order, in a ring: logical slot i (0 is
   the oldest live round) is physical slot (head + i) mod capacity. A
   round's verdicts are bytes [slot * nodes, (slot + 1) * nodes) of
   [verdicts]. Times are not monotone (a heavy burst stamps drop + Delta at
   a judgment that control delay can hold back), so [highs] keeps their
   running maximum: it is sorted, and every round before the first one
   whose running maximum reaches [lo] is older than [lo]. *)
type ring = {
  nodes : int;
  mutable times : float array;
  mutable highs : float array;
  mutable seqs : int array;
  mutable forged : (int * bool) list array;
  mutable verdicts : Bytes.t;
  mutable head : int;
  mutable length : int;
}

(* Rings by prober. [seq] numbers rounds across all rings in insertion
   order. *)
type t = { trees : Tree.t array; rings : ring array; mutable seq : int; mutable horizon : float }

let min_capacity = 4

let new_ring nodes =
  {
    nodes;
    times = Array.make min_capacity 0.;
    highs = Array.make min_capacity 0.;
    seqs = Array.make min_capacity 0;
    forged = Array.make min_capacity [];
    verdicts = Bytes.make (min_capacity * nodes) no_vote;
    head = 0;
    length = 0;
  }

let create trees =
  {
    trees;
    rings = Array.map (fun tree -> new_ring (Tree.node_count tree)) trees;
    seq = 0;
    horizon = Float.neg_infinity;
  }

let slot ring i =
  let s = ring.head + i and capacity = Array.length ring.times in
  if s >= capacity then s - capacity else s

(* Move the live rounds, oldest first, to the front of fresh arrays. *)
let resize ring capacity =
  let times = Array.make capacity 0. and highs = Array.make capacity 0. in
  let seqs = Array.make capacity 0 in
  let forged = Array.make capacity [] and verdicts = Bytes.make (capacity * ring.nodes) no_vote in
  for i = 0 to ring.length - 1 do
    let s = slot ring i in
    times.(i) <- ring.times.(s);
    highs.(i) <- ring.highs.(s);
    seqs.(i) <- ring.seqs.(s);
    forged.(i) <- ring.forged.(s);
    Bytes.blit ring.verdicts (s * ring.nodes) verdicts (i * ring.nodes) ring.nodes
  done;
  ring.times <- times;
  ring.highs <- highs;
  ring.seqs <- seqs;
  ring.forged <- forged;
  ring.verdicts <- verdicts;
  ring.head <- 0

let record t ~prober ~time ~verdicts ~forged =
  let ring = t.rings.(prober) in
  if ring.length = Array.length ring.times then resize ring (2 * ring.length);
  let s = slot ring ring.length in
  Bytes.blit verdicts 0 ring.verdicts (s * ring.nodes) ring.nodes;
  ring.times.(s) <- time;
  ring.highs.(s) <-
    (if ring.length = 0 then time
     else begin
       (* Float.max would box its result; times are never NaN. *)
       let previous = ring.highs.(slot ring (ring.length - 1)) in
       if previous > time then previous else time
     end);
  ring.seqs.(s) <- t.seq;
  ring.forged.(s) <- forged;
  ring.length <- ring.length + 1;
  t.seq <- t.seq + 1

(* Counted on demand, so recording a round copies its verdicts and counts
   nothing. *)
let count t =
  Array.fold_left
    (fun total ring ->
      let total = ref total in
      for i = 0 to ring.length - 1 do
        let s = slot ring i in
        for b = s * ring.nodes to ((s + 1) * ring.nodes) - 1 do
          if Bytes.get ring.verdicts b <> no_vote then incr total
        done;
        total := !total + List.length ring.forged.(s)
      done;
      !total)
    0 t.rings

(* The first logical slot whose running maximum reaches [bound]. *)
let first_reaching ring bound =
  let lo = ref 0 and hi = ref ring.length in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ring.highs.(slot ring mid) < bound then lo := mid + 1 else hi := mid
  done;
  !lo

type window = { votes : observation list array; excluded : int }

let window t ~probers ~exclude ~links ~lo ~hi =
  if lo < t.horizon then invalid_arg "Observation.window: window starts behind the pruned horizon";
  (* The path positions by link id, so one merge finds every link's node in
     a prober's tree. *)
  let by_link = Array.init (Array.length links) Fun.id in
  Array.sort (fun a b -> Int.compare links.(a) links.(b)) by_link;
  let sorted = Array.map (fun i -> links.(i)) by_link in
  (* [nodes.(k)]: each sorted link's node in the tree of prober [k], looked
     up once the prober has a round in the window. *)
  let nodes = Array.make (Array.length probers) [||] in
  let each_round f =
    Array.iteri
      (fun k prober ->
        let ring = t.rings.(prober) in
        for i = first_reaching ring lo to ring.length - 1 do
          let s = slot ring i in
          if ring.times.(s) >= lo && ring.times.(s) <= hi then f k ring s
        done)
      probers
  in
  let count = ref 0 in
  each_round (fun k _ _ ->
      incr count;
      if Array.length nodes.(k) = 0 then begin
        nodes.(k) <- Array.make (Array.length sorted) (-1);
        Tree.find_links t.trees.(probers.(k)) sorted nodes.(k)
      end);
  (* The window's rounds by prober position and slot, newest first. *)
  let positions = Array.make !count 0 and slots = Array.make !count 0 in
  let seqs = Array.make !count 0 and next = ref 0 in
  each_round (fun k ring s ->
      positions.(!next) <- k;
      slots.(!next) <- s;
      seqs.(!next) <- ring.seqs.(s);
      incr next);
  let newest_first = Array.init !count Fun.id in
  Array.sort (fun a b -> Int.compare seqs.(b) seqs.(a)) newest_first;
  let votes = Array.make (Array.length links) [] and excluded = ref 0 in
  let add position vote =
    if vote.prober = exclude then incr excluded else votes.(position) <- vote :: votes.(position)
  in
  (* Each round's reports last first, so every link's list comes out in
     insertion order: by round, and within a round the tree's vote before
     the forged reports, in their order. *)
  Array.iter
    (fun e ->
      let k = positions.(e) and s = slots.(e) in
      let prober = probers.(k) in
      let ring = t.rings.(prober) in
      let time = ring.times.(s) in
      (match ring.forged.(s) with
      | [] -> ()
      | forged ->
          List.iter
            (fun (link, up) ->
              Array.iteri
                (fun position l -> if l = link then add position { time; prober; link; up })
                links)
            (List.rev forged));
      let row = nodes.(k) and base = s * ring.nodes in
      for p = 0 to Array.length sorted - 1 do
        let node = row.(p) in
        if node >= 0 then begin
          let verdict = Bytes.get ring.verdicts (base + node) in
          if verdict <> no_vote then
            add by_link.(p) { time; prober; link = sorted.(p); up = verdict = up_vote }
        end
      done)
    newest_first;
  { votes; excluded = !excluded }

(* Drop the rounds before the first whose running maximum reaches the
   horizon, and halve a ring left below a quarter full, as the engine's
   heap does, so a burst of rounds does not pin its high-water mark. *)
let prune_ring ring horizon =
  let first = first_reaching ring horizon in
  for i = 0 to first - 1 do
    ring.forged.(slot ring i) <- []
  done;
  ring.head <- slot ring first;
  ring.length <- ring.length - first;
  let capacity = Array.length ring.times in
  if capacity > min_capacity && 4 * ring.length < capacity then resize ring (capacity / 2)

let prune_before t horizon =
  if horizon > t.horizon then begin
    t.horizon <- horizon;
    Array.iter (fun ring -> prune_ring ring horizon) t.rings
  end
