(* Events hold callbacks over [t] while [t] owns the event heap, so the two
   types are mutually recursive; a specialised inline heap avoids forcing
   that recursion through a functor. *)
type event = { time : float; seq : int; action : t -> unit }

and t = {
  mutable clock : float;
  mutable next_seq : int;
  mutable data : event array;
  mutable size : int;
  mutable on_push : (pending:int -> unit) option;
      (* observability hook: queue-depth sampling. One branch when unset. *)
}

let create () = { clock = 0.; next_seq = 0; data = [||]; size = 0; on_push = None }

let set_on_push t f = t.on_push <- Some f

(* Placeholder stored in vacated slots: a popped event's action closure can
   capture large world state, and anything left reachable in [data] beyond
   [size] would never be collected. *)
let tombstone = { time = neg_infinity; seq = min_int; action = ignore }
let now t = t.clock
let pending t = t.size
let capacity t = Array.length t.data

let earlier a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if earlier t.data.(i) t.data.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && earlier t.data.(l) t.data.(!smallest) then smallest := l;
  if r < t.size && earlier t.data.(r) t.data.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t event =
  if t.size = Array.length t.data then begin
    (* Fill with the tombstone, not [event]: padding slots must not pin the
       pushed event's closure once it has been popped. *)
    let grown = Array.make (max 16 (2 * t.size)) tombstone in
    Array.blit t.data 0 grown 0 t.size;
    t.data <- grown
  end;
  t.data.(t.size) <- event;
  t.size <- t.size + 1;
  sift_up t (t.size - 1);
  match t.on_push with None -> () | Some f -> f ~pending:t.size

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    (* Clear the vacated slot so the popped event (and whatever its action
       closure captures) becomes collectable. *)
    t.data.(t.size) <- tombstone;
    (* Halve the backing array once occupancy drops below a quarter: a run
       whose queue peaked early must not pin its high-water storage for the
       rest of a long simulation. Amortised O(1) per pop. *)
    let cap = Array.length t.data in
    if cap >= 64 && t.size <= cap / 4 then begin
      let shrunk = Array.make (max 32 (cap / 2)) tombstone in
      Array.blit t.data 0 shrunk 0 t.size;
      t.data <- shrunk
    end;
    Some top
  end

(* NaN compares false against everything, so an unguarded NaN time would
   slip past the past-time check and then violate the heap invariant
   ([earlier] is not a total order over NaN), silently corrupting event
   order for every later event. *)
let schedule_at t ~time action =
  if Float.is_nan time then invalid_arg "Engine.schedule_at: NaN time";
  if time < t.clock then invalid_arg "Engine.schedule_at: time is in the past";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  push t { time; seq; action }

let schedule t ~delay action =
  if Float.is_nan delay then invalid_arg "Engine.schedule: NaN delay";
  if delay < 0. then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock +. delay) action

let step t =
  match pop t with
  | None -> false
  | Some event ->
      t.clock <- event.time;
      event.action t;
      true

let run t = while step t do () done

let run_until t horizon =
  if horizon < t.clock then invalid_arg "Engine.run_until: horizon is in the past";
  let continue = ref true in
  while !continue do
    if t.size > 0 && t.data.(0).time <= horizon then ignore (step t) else continue := false
  done;
  t.clock <- horizon
