(* The traced run's attribution of wall time to layers.

   Each Engine.step is timed from outside and classified exactly once:

   - a light probe round, when Protocol called [tap_forged_reports] during
     the step (it does so once per lightweight round; the tap returns [],
     so the run is unchanged);
   - a judgment, when the step fired an undelivered message's outcome;
   - other (link-state flips, retransmits, client sends) otherwise.

   Inside a step, wall time of the benchmark's own calls into the protocol
   ([send_message], [fetch_accusations], [World.overlay_route]) is billed to
   those calls, and the existing trace spans are stamped with the monotonic
   clock through [Trace.set_tap]. What is left of a judgment step after its
   spans is [judgment.unattributed_s]. Minor-heap words allocated by this
   domain are attributed the same way. *)

module Engine = Concilium_netsim.Engine
module Protocol = Concilium_core.Protocol

type kind = Light | Judgment | Other

let kind_index = function Light -> 0 | Judgment -> 1 | Other -> 2

(* The span sites the benchmark attributes; every other span (message,
   episode, retransmit.backoff, probe.round) covers virtual time only. *)
let tracked = [| "probe.heavy_burst"; "minc.solve"; "blame.evaluate"; "stewardship.resolve" |]

type span_totals = {
  mutable count : int;
  mutable total_s : float;
  mutable self_s : float;
  mutable self_words : float;
}

type open_span = {
  id : int;
  site : int;
  start : float;
  start_words : float;
  mutable child_s : float;
  mutable child_words : float;
}

type t = {
  mutable light_flag : bool;
  mutable judgment_flag : bool;
  mutable bench_in_step : float;
  mutable bench_words_in_step : float;
  mutable spans_in_step : float;  (* outermost tracked spans closed in this step *)
  mutable span_words_in_step : float;
  steps : int array;  (* by kind *)
  net_s : float array;  (* by kind: step wall minus benchmark calls and spans *)
  net_words : float array;  (* by kind, likewise *)
  mutable both_flags : int;  (* steps that looked like two kinds at once *)
  mutable spans_outside_judgment : int;
  sites : span_totals array;
  mutable stack : open_span list;
}

let create () =
  {
    light_flag = false;
    judgment_flag = false;
    bench_in_step = 0.;
    bench_words_in_step = 0.;
    spans_in_step = 0.;
    span_words_in_step = 0.;
    steps = Array.make 3 0;
    net_s = Array.make 3 0.;
    net_words = Array.make 3 0.;
    both_flags = 0;
    spans_outside_judgment = 0;
    sites =
      Array.init (Array.length tracked) (fun _ -> { count = 0; total_s = 0.; self_s = 0.; self_words = 0. });
    stack = [];
  }

let taps t =
  {
    Protocol.no_taps with
    Protocol.tap_forged_reports =
      (fun ~time:_ ~prober:_ ->
        t.light_flag <- true;
        []);
  }

let mark_judgment t = t.judgment_flag <- true

(* Run one benchmark call inside a step, billing its wall time to the
   caller rather than to the step's layer. Returns the result and the
   seconds it took. *)
let bill t f =
  let words = Gc.minor_words () in
  let result, seconds = Host.timed f in
  t.bench_in_step <- t.bench_in_step +. seconds;
  t.bench_words_in_step <- t.bench_words_in_step +. (Gc.minor_words () -. words);
  (result, seconds)

(* ---------- span stamping ----------

   Tap lines are Trace's JSONL records: {"t": T, "ph": "open", "id": N,
   "name": "..." ...} and {"t": T, "ph": "close", "id": N ...}. *)

let field_after line key from =
  let n = String.length line and k = String.length key in
  let rec matches i j = j = k || (line.[i + j] = key.[j] && matches i (j + 1)) in
  let rec scan i = if i + k > n then None else if matches i 0 then Some (i + k) else scan (i + 1) in
  scan from

let read_int line start =
  let stop = ref start in
  while !stop < String.length line && line.[!stop] >= '0' && line.[!stop] <= '9' do
    incr stop
  done;
  int_of_string (String.sub line start (!stop - start))

let site_of_name line start =
  let stop = String.index_from line start '"' in
  let name = String.sub line start (stop - start) in
  let rec find i = if i >= Array.length tracked then None else if tracked.(i) = name then Some i else find (i + 1) in
  find 0

let on_trace_line t line =
  let stamp = Host.now () and words = Gc.minor_words () in
  match field_after line {|"ph": "|} 0 with
  | None -> ()
  | Some ph -> (
      match line.[ph] with
      | 'o' -> (
          match field_after line {|"id": |} ph with
          | None -> ()
          | Some id_at -> (
              let id = read_int line id_at in
              match field_after line {|"name": "|} id_at with
              | None -> ()
              | Some name_at -> (
                  match site_of_name line name_at with
                  | None -> ()
                  | Some site ->
                      t.stack <-
                        { id; site; start = stamp; start_words = words; child_s = 0.; child_words = 0. }
                        :: t.stack)))
      | 'c' -> (
          match (t.stack, field_after line {|"id": |} ph) with
          | top :: rest, Some id_at when read_int line id_at = top.id ->
              let total = stamp -. top.start and total_words = words -. top.start_words in
              let totals = t.sites.(top.site) in
              totals.count <- totals.count + 1;
              totals.total_s <- totals.total_s +. total;
              totals.self_s <- totals.self_s +. (total -. top.child_s);
              totals.self_words <- totals.self_words +. (total_words -. top.child_words);
              t.stack <- rest;
              (match rest with
              | parent :: _ ->
                  parent.child_s <- parent.child_s +. total;
                  parent.child_words <- parent.child_words +. total_words
              | [] ->
                  t.spans_in_step <- t.spans_in_step +. total;
                  t.span_words_in_step <- t.span_words_in_step +. total_words)
          | _ -> ())
      | _ -> ())

(* ---------- steps ---------- *)

(* One Engine.step, timed and classified. Returns whether an event ran. *)
let step t engine =
  t.light_flag <- false;
  t.judgment_flag <- false;
  t.bench_in_step <- 0.;
  t.bench_words_in_step <- 0.;
  t.spans_in_step <- 0.;
  t.span_words_in_step <- 0.;
  let words = Gc.minor_words () in
  let ran, wall = Host.timed (fun () -> Engine.step engine) in
  let words = Gc.minor_words () -. words in
  if ran then begin
    if t.light_flag && t.judgment_flag then t.both_flags <- t.both_flags + 1;
    let kind = if t.judgment_flag then Judgment else if t.light_flag then Light else Other in
    if kind <> Judgment && t.spans_in_step > 0. then
      t.spans_outside_judgment <- t.spans_outside_judgment + 1;
    let i = kind_index kind in
    t.steps.(i) <- t.steps.(i) + 1;
    t.net_s.(i) <- t.net_s.(i) +. (wall -. t.bench_in_step -. t.spans_in_step);
    t.net_words.(i) <- t.net_words.(i) +. (words -. t.bench_words_in_step -. t.span_words_in_step)
  end;
  ran

let steps t kind = t.steps.(kind_index kind)
let total_steps t = Array.fold_left ( + ) 0 t.steps
let net_seconds t kind = t.net_s.(kind_index kind)
let net_words t kind = t.net_words.(kind_index kind)
let site t name =
  let rec find i = if tracked.(i) = name then t.sites.(i) else find (i + 1) in
  find 0

let both_flags t = t.both_flags
let spans_outside_judgment t = t.spans_outside_judgment
let open_spans t = List.length t.stack
