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

(* Columns by link id (ids are dense), made at a link's first observation. *)
type t = { mutable columns : column option array; mutable count : int; mutable horizon : float }

let create () = { columns = [||]; count = 0; horizon = Float.neg_infinity }

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

let column_for t link =
  let width = Array.length t.columns in
  if link >= width then begin
    let wider = Array.make (max (link + 1) (2 * width)) None in
    Array.blit t.columns 0 wider 0 width;
    t.columns <- wider
  end;
  match t.columns.(link) with
  | Some column -> column
  | None ->
      let column = new_column () in
      t.columns.(link) <- Some column;
      column

(* The fields arrive as arguments, not as an [observation], so recording a
   vote allocates nothing but amortised column growth. *)
let record t ~time ~prober ~link ~up =
  let column = column_for t link in
  if column.stop = Array.length column.times then make_room column;
  let i = column.stop in
  column.times.(i) <- time;
  column.highs.(i) <-
    (* Float.max would box its result; times are never NaN. *)
    (if i > 0 && column.highs.(i - 1) > time then column.highs.(i - 1) else time);
  column.probers.(i) <- prober;
  Bytes.set column.ups i (if up then '\001' else '\000');
  column.stop <- i + 1;
  t.count <- t.count + 1

let count t = t.count

(* The first slot in [lo, hi) whose running maximum reaches [bound]. *)
let rec first_reaching highs bound lo hi =
  if lo >= hi then lo
  else begin
    let mid = lo + ((hi - lo) / 2) in
    if highs.(mid) < bound then first_reaching highs bound (mid + 1) hi
    else first_reaching highs bound lo mid
  end

let on_link t ~link ~lo ~hi ~keep =
  if lo < t.horizon then
    invalid_arg "Observation.on_link: window starts behind the pruned horizon";
  match if link < Array.length t.columns then t.columns.(link) else None with
  | None -> []
  | Some column ->
      let window = ref [] in
      for i = column.stop - 1 downto first_reaching column.highs lo column.start column.stop do
        let time = column.times.(i) in
        if time >= lo && time <= hi && keep column.probers.(i) then
          window :=
            { time; prober = column.probers.(i); link; up = Bytes.get column.ups i <> '\000' }
            :: !window
      done;
      !window

let prune_before t horizon =
  if horizon > t.horizon then begin
    t.horizon <- horizon;
    Array.iter
      (function
        | None -> ()
        | Some column ->
            let first = first_reaching column.highs horizon column.start column.stop in
            t.count <- t.count - (first - column.start);
            (* An emptied column restarts at slot 0, so it never compacts. *)
            if first = column.stop then begin
              column.start <- 0;
              column.stop <- 0
            end
            else column.start <- first)
      t.columns
  end
