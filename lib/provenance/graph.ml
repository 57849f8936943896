(* Causal-provenance arena: every node is a dense int id into parallel
   growable arrays (one tag byte, four int operands, two float operands),
   and every edge is a cell in head/next adjacency arrays. No per-node
   heap object exists, so a graph covering a million-node soak costs a
   handful of flat arrays rather than a forest of records.

   Like the obs sinks, a graph is either recording or the shared [noop]
   whose constructors cost one branch and hand back {!none}. Recording
   draws no randomness and schedules nothing: a run produces identical
   results with provenance on or off, and per-shard graphs merged in
   shard order render byte-identical JSONL for any domain count. *)

module Json = Concilium_util.Json

type node = int

let none : node = 0

type verdict_kind = Guilty | Innocent | Insufficient

type defense_kind = Exclude_suspect | Vote_dedup

type tap_kind = Route_rewrite | Forced_drop | Advert_rewrite

type failover_kind = Dht_put | Dht_get | Steward

(* Node tags, stored one byte per node. *)
let tag_probe = 0
let tag_verdict = 1
let tag_accusation = 2
let tag_defense = 3
let tag_tap = 4
let tag_failover = 5

type t = {
  recording : bool;
  mutable tags : Bytes.t;
  mutable ia : int array;  (* prober / judge / accuser / knob ... *)
  mutable ib : int array;  (* link / suspect / accused / removed ... *)
  mutable ic : int array;  (* packed flag bits *)
  mutable id_ : int array;  (* usable_rounds / suspect *)
  mutable fa : float array;  (* time / blame *)
  mutable fb : float array;  (* drop_time *)
  mutable count : int;
  mutable head : int array;  (* per node: last edge cell, -1 = none *)
  mutable edge_to : int array;
  mutable edge_next : int array;
  mutable edge_count : int;
  mutable params : (string * float) list;  (* newest first *)
  mutable tap : (string -> unit) option;
}

let create () =
  {
    recording = true;
    tags = Bytes.create 256;
    ia = Array.make 256 0;
    ib = Array.make 256 0;
    ic = Array.make 256 0;
    id_ = Array.make 256 0;
    fa = Array.make 256 0.;
    fb = Array.make 256 0.;
    count = 0;
    head = Array.make 256 (-1);
    edge_to = Array.make 256 0;
    edge_next = Array.make 256 (-1);
    edge_count = 0;
    params = [];
    tap = None;
  }

let noop =
  {
    recording = false;
    tags = Bytes.create 0;
    ia = [||];
    ib = [||];
    ic = [||];
    id_ = [||];
    fa = [||];
    fb = [||];
    count = 0;
    head = [||];
    edge_to = [||];
    edge_next = [||];
    edge_count = 0;
    params = [];
    tap = None;
  }

let enabled t = t.recording
let node_count t = t.count
let edge_count t = t.edge_count

let set_tap t f = if t.recording then t.tap <- Some f

(* ---------- Growable-arena plumbing ---------- *)

let grow_int a n = Array.init n (fun i -> if i < Array.length a then a.(i) else 0)
let grow_float a n = Array.init n (fun i -> if i < Array.length a then a.(i) else 0.)

let ensure_node_capacity t =
  let cap = Array.length t.ia in
  if t.count >= cap then begin
    let n = max 256 (2 * cap) in
    let tags = Bytes.make n '\000' in
    Bytes.blit t.tags 0 tags 0 cap;
    t.tags <- tags;
    t.ia <- grow_int t.ia n;
    t.ib <- grow_int t.ib n;
    t.ic <- grow_int t.ic n;
    t.id_ <- grow_int t.id_ n;
    t.fa <- grow_float t.fa n;
    t.fb <- grow_float t.fb n;
    t.head <- Array.init n (fun i -> if i < cap then t.head.(i) else -1)
  end

let ensure_edge_capacity t =
  let cap = Array.length t.edge_to in
  if t.edge_count >= cap then begin
    let n = max 256 (2 * cap) in
    t.edge_to <- grow_int t.edge_to n;
    t.edge_next <- Array.init n (fun i -> if i < cap then t.edge_next.(i) else -1)
  end

(* ---------- JSONL rendering ---------- *)

let kind_name tag =
  if tag = tag_probe then "probe"
  else if tag = tag_verdict then "verdict"
  else if tag = tag_accusation then "accusation"
  else if tag = tag_defense then "defense"
  else if tag = tag_tap then "tap"
  else "failover"

let verdict_name = function
  | Guilty -> "guilty"
  | Innocent -> "innocent"
  | Insufficient -> "insufficient"

let defense_name = function
  | Exclude_suspect -> "exclude-suspect"
  | Vote_dedup -> "vote-dedup"

let tap_name = function
  | Route_rewrite -> "route-rewrite"
  | Forced_drop -> "forced-drop"
  | Advert_rewrite -> "advert-rewrite"

let failover_name = function
  | Dht_put -> "dht-put"
  | Dht_get -> "dht-get"
  | Steward -> "steward"

let verdict_of_bits bits =
  if bits land 3 = 0 then Guilty else if bits land 3 = 1 then Innocent else Insufficient

(* Floats render with %.17g so every recorded double (blame values,
   timestamps) survives the dump/parse round trip exactly — the replay
   validator compares them bit-for-bit. *)
let add_node_fields buf t i =
  let add fmt = Printf.bprintf buf fmt in
  let tag = Char.code (Bytes.get t.tags i) in
  add {|"id": %d, "kind": %s|} (i + 1) (Json.quote (kind_name tag));
  if tag = tag_probe then
    add {|, "prober": %d, "link": %d, "up": %b, "tapped": %b, "forged": %b, "time": %.17g|}
      t.ia.(i) t.ib.(i)
      (t.ic.(i) land 1 <> 0)
      (t.ic.(i) land 2 <> 0)
      (t.ic.(i) land 4 <> 0)
      t.fa.(i)
  else if tag = tag_verdict then
    add
      {|, "judge": %d, "suspect": %d, "verdict": %s, "exonerated": %b, "usable_rounds": %d, "blame": %.17g, "drop_time": %.17g|}
      t.ia.(i) t.ib.(i)
      (Json.quote (verdict_name (verdict_of_bits t.ic.(i))))
      (t.ic.(i) land 4 <> 0)
      t.id_.(i) t.fa.(i) t.fb.(i)
  else if tag = tag_accusation then
    add {|, "accuser": %d, "accused": %d, "blame": %.17g, "time": %.17g|} t.ia.(i) t.ib.(i)
      t.fa.(i) t.fb.(i)
  else if tag = tag_defense then
    add {|, "knob": %s, "removed": %d, "judge": %d, "suspect": %d|}
      (Json.quote (defense_name (if t.ia.(i) = 0 then Exclude_suspect else Vote_dedup)))
      t.ib.(i) t.ic.(i) t.id_.(i)
  else if tag = tag_tap then
    add {|, "firing": %s, "node": %d, "time": %.17g|}
      (Json.quote
         (tap_name
            (if t.ia.(i) = 0 then Route_rewrite
             else if t.ia.(i) = 1 then Forced_drop
             else Advert_rewrite)))
      t.ib.(i) t.fa.(i)
  else
    add {|, "path": %s, "node": %d, "time": %.17g|}
      (Json.quote
         (failover_name (if t.ia.(i) = 0 then Dht_put else if t.ia.(i) = 1 then Dht_get else Steward)))
      t.ib.(i) t.fa.(i)

let node_line t i =
  let buf = Buffer.create 128 in
  Buffer.add_char buf '{';
  add_node_fields buf t i;
  Buffer.add_char buf '}';
  Buffer.contents buf

let param_line name value =
  Printf.sprintf {|{"param": %s, "value": %.17g}|} (Json.quote name) value

let edge_line ~parent ~child = Printf.sprintf {|{"edge": [%d, %d]}|} parent child

(* ---------- Construction ---------- *)

let emit_tap t line = match t.tap with None -> () | Some f -> f line

let add_node t ~tag ~ia ~ib ~ic ~id_ ~fa ~fb =
  if not t.recording then none
  else begin
    ensure_node_capacity t;
    let i = t.count in
    Bytes.set t.tags i (Char.chr tag);
    t.ia.(i) <- ia;
    t.ib.(i) <- ib;
    t.ic.(i) <- ic;
    t.id_.(i) <- id_;
    t.fa.(i) <- fa;
    t.fb.(i) <- fb;
    t.count <- i + 1;
    if t.tap <> None then emit_tap t (node_line t i);
    i + 1
  end

let edge t ~parent ~child =
  if t.recording && parent <> none && child <> none then begin
    ensure_edge_capacity t;
    let k = t.edge_count in
    t.edge_to.(k) <- child;
    t.edge_next.(k) <- t.head.(parent - 1);
    t.head.(parent - 1) <- k;
    t.edge_count <- k + 1;
    if t.tap <> None then emit_tap t (edge_line ~parent ~child)
  end

let set_param t name value =
  if t.recording then begin
    t.params <- (name, value) :: List.remove_assoc name t.params;
    if t.tap <> None then emit_tap t (param_line name value)
  end

let param t name = List.assoc_opt name t.params

let flags ~up ~tapped ~forged =
  (if up then 1 else 0) lor (if tapped then 2 else 0) lor if forged then 4 else 0

let probe t ~prober ~link ~time ~up ~tapped ~forged =
  add_node t ~tag:tag_probe ~ia:prober ~ib:link ~ic:(flags ~up ~tapped ~forged) ~id_:0 ~fa:time
    ~fb:0.

let verdict t ~judge ~suspect ~kind ~exonerated ~usable_rounds ~blame ~drop_time =
  let bits =
    (match kind with Guilty -> 0 | Innocent -> 1 | Insufficient -> 2)
    lor if exonerated then 4 else 0
  in
  add_node t ~tag:tag_verdict ~ia:judge ~ib:suspect ~ic:bits ~id_:usable_rounds ~fa:blame
    ~fb:drop_time

let accusation t ~accuser ~accused ~blame ~time =
  add_node t ~tag:tag_accusation ~ia:accuser ~ib:accused ~ic:0 ~id_:0 ~fa:blame ~fb:time

let defense t ~kind ~removed ~judge ~suspect =
  let knob = match kind with Exclude_suspect -> 0 | Vote_dedup -> 1 in
  add_node t ~tag:tag_defense ~ia:knob ~ib:removed ~ic:judge ~id_:suspect ~fa:0. ~fb:0.

let tap_firing t ~kind ~node ~time =
  let k = match kind with Route_rewrite -> 0 | Forced_drop -> 1 | Advert_rewrite -> 2 in
  add_node t ~tag:tag_tap ~ia:k ~ib:node ~ic:0 ~id_:0 ~fa:time ~fb:0.

let failover t ~kind ~node ~time =
  let k = match kind with Dht_put -> 0 | Dht_get -> 1 | Steward -> 2 in
  add_node t ~tag:tag_failover ~ia:k ~ib:node ~ic:0 ~id_:0 ~fa:time ~fb:0.

(* ---------- Queries ---------- *)

let children t node =
  if node <= 0 || node > t.count then []
  else begin
    (* The adjacency list is newest-first; reverse into creation order so
       renders and replays see votes in the order they were attached. *)
    let rec walk k acc = if k < 0 then acc else walk t.edge_next.(k) (t.edge_to.(k) :: acc) in
    walk t.head.(node - 1) []
  end

let kind_of t node =
  if node <= 0 || node > t.count then invalid_arg "Provenance: node out of range"
  else kind_name (Char.code (Bytes.get t.tags (node - 1)))

let verdicts t =
  let out = ref [] in
  for i = t.count - 1 downto 0 do
    if Char.code (Bytes.get t.tags i) = tag_verdict then out := (i + 1) :: !out
  done;
  !out

(* ---------- Merge and export ---------- *)

let merge shards =
  let out = create () in
  Array.iter
    (fun shard ->
      let offset = out.count in
      for i = 0 to shard.count - 1 do
        ensure_node_capacity out;
        let j = out.count in
        Bytes.set out.tags j (Bytes.get shard.tags i);
        out.ia.(j) <- shard.ia.(i);
        out.ib.(j) <- shard.ib.(i);
        out.ic.(j) <- shard.ic.(i);
        out.id_.(j) <- shard.id_.(i);
        out.fa.(j) <- shard.fa.(i);
        out.fb.(j) <- shard.fb.(i);
        out.count <- j + 1
      done;
      (* Re-attach edges node by node: walking head/next yields newest
         first, so the reversal restores within-shard creation order. *)
      for i = 0 to shard.count - 1 do
        let rec walk k acc =
          if k < 0 then acc else walk shard.edge_next.(k) (shard.edge_to.(k) :: acc)
        in
        List.iter
          (fun child -> edge out ~parent:(i + 1 + offset) ~child:(child + offset))
          (walk shard.head.(i) [])
      done;
      List.iter (fun (name, value) -> set_param out name value) (List.rev shard.params))
    shards;
  out

let jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, value) ->
      Buffer.add_string buf (param_line name value);
      Buffer.add_char buf '\n')
    (List.sort (fun (a, _) (b, _) -> String.compare a b) t.params);
  for i = 0 to t.count - 1 do
    Buffer.add_char buf '{';
    add_node_fields buf t i;
    let kids = children t (i + 1) in
    if kids <> [] then begin
      Buffer.add_string buf {|, "children": [|};
      List.iteri
        (fun j child ->
          if j > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (string_of_int child))
        kids;
      Buffer.add_char buf ']'
    end;
    Buffer.add_string buf "}\n"
  done;
  Buffer.contents buf
