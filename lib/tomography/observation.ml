type observation = { time : float; prober : int; link : int; up : bool }

(* One link's observations as columns in insertion order; slots
   [start, stop) are live. Times are not monotone (a heavy burst stamps
   drop + Delta at a judgment that control delay can hold back), so
   [highs] keeps their running maximum: it is sorted, and every slot
   before the first one whose running maximum reaches [lo] is older than
   [lo]. *)
type column = {
  mutable times : float array;
  mutable highs : float array;
  mutable probers : int array;
  mutable ups : Bytes.t;
  mutable start : int;
  mutable stop : int;
}

type t = { table : (int, column) Hashtbl.t; mutable count : int; mutable horizon : float }

let create () = { table = Hashtbl.create 1024; count = 0; horizon = Float.neg_infinity }

let new_column () =
  let capacity = 16 in
  {
    times = Array.make capacity 0.;
    highs = Array.make capacity 0.;
    probers = Array.make capacity 0;
    ups = Bytes.make capacity '\000';
    start = 0;
    stop = 0;
  }

(* A full column first compacts its dead prefix away, and only doubles
   when the live slots would still fill more than half of it, so an
   append costs amortised O(1). *)
let make_room column =
  let start = column.start and live = column.stop - column.start in
  let capacity = Array.length column.times in
  if 2 * live <= capacity then begin
    Array.blit column.times start column.times 0 live;
    Array.blit column.highs start column.highs 0 live;
    Array.blit column.probers start column.probers 0 live;
    Bytes.blit column.ups start column.ups 0 live
  end
  else begin
    let grown slots fill =
      let wider = Array.make (2 * capacity) fill in
      Array.blit slots start wider 0 live;
      wider
    in
    column.times <- grown column.times 0.;
    column.highs <- grown column.highs 0.;
    column.probers <- grown column.probers 0;
    let ups = Bytes.make (2 * capacity) '\000' in
    Bytes.blit column.ups start ups 0 live;
    column.ups <- ups
  end;
  column.start <- 0;
  column.stop <- live

let record t observation =
  let column =
    match Hashtbl.find_opt t.table observation.link with
    | Some column -> column
    | None ->
        let column = new_column () in
        Hashtbl.replace t.table observation.link column;
        column
  in
  if column.stop = Array.length column.times then make_room column;
  let i = column.stop in
  column.times.(i) <- observation.time;
  column.highs.(i) <-
    (if i = 0 then observation.time else Float.max column.highs.(i - 1) observation.time);
  column.probers.(i) <- observation.prober;
  Bytes.set column.ups i (if observation.up then '\001' else '\000');
  column.stop <- i + 1;
  t.count <- t.count + 1

let count t = t.count

(* The first live slot whose running maximum reaches [bound]. *)
let first_reaching column bound =
  let rec search lo hi =
    if lo >= hi then lo
    else begin
      let mid = lo + ((hi - lo) / 2) in
      if column.highs.(mid) < bound then search (mid + 1) hi else search lo mid
    end
  in
  search column.start column.stop

let on_link t ~link ~lo ~hi =
  if lo < t.horizon then
    invalid_arg "Observation.on_link: window starts behind the pruned horizon";
  match Hashtbl.find_opt t.table link with
  | None -> []
  | Some column ->
      let window = ref [] in
      for i = column.stop - 1 downto first_reaching column lo do
        let time = column.times.(i) in
        if time >= lo && time <= hi then
          window :=
            { time; prober = column.probers.(i); link; up = Bytes.get column.ups i <> '\000' }
            :: !window
      done;
      !window

let prune_before t horizon =
  if horizon > t.horizon then begin
    t.horizon <- horizon;
    (* Each column is cut independently; the visit order cannot change the
       outcome.  lint: allow hashtbl-order *)
    Hashtbl.iter
      (fun _ column ->
        let first = first_reaching column horizon in
        t.count <- t.count - (first - column.start);
        (* An emptied column restarts at slot 0, so it never compacts. *)
        if first = column.stop then begin
          column.start <- 0;
          column.stop <- 0
        end
        else column.start <- first)
      t.table
  end
