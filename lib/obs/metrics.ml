module Histogram = Concilium_stats.Histogram
module Json = Concilium_util.Json

(* Log-bucketed histograms reuse the linear stats histogram over log2 space:
   bucket i counts observations in [2^i, 2^(i+1)). 64 bins cover the full
   non-negative int range; observations below 2 clamp into bucket 0. *)
let histogram_bins = 64

(* Bucket selection must not go through libm's log2: it is not required to
   be correctly rounded, so an exact power of two could land on either side
   of its bucket boundary depending on the host. frexp is exact — for
   v = m * 2^e with m in [0.5, 1), v in [2^i, 2^(i+1)) iff e = i + 1 — so
   2^i always opens bucket i, on every host. *)
let bucket_of_value value =
  if Float.is_nan value || value < 2. then 0
  else begin
    let _, e = Float.frexp value in
    min (histogram_bins - 1) (e - 1)
  end

let make_histogram () = Histogram.create ~lo:0. ~hi:(float_of_int histogram_bins) ~bins:histogram_bins

type metric =
  | Counter of int ref
  | Gauge of float ref
  | Histo of Histogram.t

type t = { recording : bool; table : (string, metric) Hashtbl.t }

let create () = { recording = true; table = Hashtbl.create 64 }
let noop = { recording = false; table = Hashtbl.create 1 }
let enabled t = t.recording

let kind_name = function Counter _ -> "counter" | Gauge _ -> "gauge" | Histo _ -> "histogram"

let wrong_kind name metric want =
  invalid_arg
    (Printf.sprintf "Metrics: %S is a %s, used as a %s" name (kind_name metric) want)

let gauge_ref t name =
  match Hashtbl.find_opt t.table name with
  | Some (Gauge r) -> r
  | Some metric -> wrong_kind name metric "gauge"
  | None ->
      let r = ref 0. in
      Hashtbl.replace t.table name (Gauge r);
      r

let histogram_of t name =
  match Hashtbl.find_opt t.table name with
  | Some (Histo h) -> h
  | Some metric -> wrong_kind name metric "histogram"
  | None ->
      let h = make_histogram () in
      Hashtbl.replace t.table name (Histo h);
      h

(* The steady-state path (counter exists) must not allocate: Hashtbl.find
   plus an exception match avoids the [Some] box that find_opt builds on
   every call. test_obs pins this with a minor-words regression. *)
let incr t ?(by = 1) name =
  if t.recording then begin
    match Hashtbl.find t.table name with
    | Counter r -> r := !r + by
    | (Gauge _ | Histo _) as metric -> wrong_kind name metric "counter"
    | exception Not_found -> Hashtbl.replace t.table name (Counter (ref by))
  end

let set t name value = if t.recording then gauge_ref t name := value

let observe t name value =
  if t.recording then
    Histogram.add (histogram_of t name) (float_of_int (bucket_of_value value) +. 0.5)

let counter t name =
  match Hashtbl.find_opt t.table name with Some (Counter r) -> !r | Some _ | None -> 0

let sorted_items t =
  Hashtbl.fold (fun name metric acc -> (name, metric) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters t =
  List.filter_map
    (fun (name, metric) -> match metric with Counter r -> Some (name, !r) | Gauge _ | Histo _ -> None)
    (sorted_items t)

let copy t =
  let out = { recording = t.recording; table = Hashtbl.create (Hashtbl.length t.table + 1) } in
  (* Keyed inserts into a fresh table: the result is the same whatever
     order the source is walked in. lint: allow hashtbl-order *)
  Hashtbl.iter
    (fun name metric ->
      let dup =
        match metric with
        | Counter r -> Counter (ref !r)
        | Gauge g -> Gauge (ref !g)
        | Histo h ->
            let fresh = make_histogram () in
            Histogram.merge_into ~into:fresh h;
            Histo fresh
      in
      Hashtbl.replace out.table name dup)
    t.table;
  out

let merge shards =
  let out = create () in
  Array.iter
    (fun shard ->
      List.iter
        (fun (name, metric) ->
          match metric with
          | Counter r -> incr out ~by:!r name
          | Gauge g -> set out name !g
          | Histo h -> Histogram.merge_into ~into:(histogram_of out name) h)
        (sorted_items shard))
    shards;
  out

(* ---------- JSON snapshot ---------- *)

let add_histogram buf h =
  Buffer.add_string buf (Printf.sprintf "{\"total\": %d, \"buckets\": {" (Histogram.total h));
  let counts = Histogram.counts h in
  let wrote = ref false in
  Array.iteri
    (fun exponent count ->
      if count > 0 then begin
        if !wrote then Buffer.add_string buf ", ";
        wrote := true;
        Buffer.add_string buf (Printf.sprintf "\"2^%d\": %d" exponent count)
      end)
    counts;
  Buffer.add_string buf "}}"

let picked t =
  let items = sorted_items t in
  let pick f = List.filter_map (fun (name, metric) -> Option.map (fun v -> (name, v)) (f metric)) items in
  let counters = pick (function Counter r -> Some !r | Gauge _ | Histo _ -> None) in
  let gauges = pick (function Gauge g -> Some !g | Counter _ | Histo _ -> None) in
  let histos = pick (function Histo h -> Some h | Counter _ | Gauge _ -> None) in
  (counters, gauges, histos)

(* Single-line rendering of the three metric sections, for embedding into
   one time-series JSONL record. *)
let snapshot_fields t =
  let counters, gauges, histos = picked t in
  let buf = Buffer.create 256 in
  let section label items add_item =
    Buffer.add_string buf (Json.quote label ^ ": {");
    List.iteri
      (fun i (name, item) ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf (Json.quote name ^ ": ");
        add_item buf item)
      items;
    Buffer.add_char buf '}'
  in
  section "counters" counters (fun buf v -> Buffer.add_string buf (string_of_int v));
  Buffer.add_string buf ", ";
  section "gauges" gauges (fun buf v -> Buffer.add_string buf (Printf.sprintf "%.6f" v));
  Buffer.add_string buf ", ";
  section "histograms" histos add_histogram;
  Buffer.contents buf

let add_section buf ~label ~first items add_item =
  if not !first then Buffer.add_string buf ",\n";
  first := false;
  Buffer.add_string buf ("  " ^ Json.quote label ^ ": {");
  List.iteri
    (fun i (name, item) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf ("\n    " ^ Json.quote name ^ ": ");
      add_item buf item)
    items;
  if items <> [] then Buffer.add_string buf "\n  ";
  Buffer.add_char buf '}'

let snapshot_json ?time t =
  let counters, gauges, histos = picked t in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  let first = ref true in
  (match time with
  | Some time ->
      Buffer.add_string buf (Printf.sprintf "  \"time\": %.6f" time);
      first := false
  | None -> ());
  add_section buf ~label:"counters" ~first counters (fun buf v ->
      Buffer.add_string buf (string_of_int v));
  add_section buf ~label:"gauges" ~first gauges (fun buf v ->
      Buffer.add_string buf (Printf.sprintf "%.6f" v));
  add_section buf ~label:"histograms" ~first histos add_histogram;
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf
