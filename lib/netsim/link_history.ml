(* Per link, the recorded bad time as sorted, pairwise disjoint,
   non-touching intervals [starts.(k), finishes.(k)) for k < count. An
   insertion that overlaps or touches recorded intervals merges with them,
   so a flapping link holds one interval per distinct bad span, and both
   columns ascend: point queries and insertions binary-search them. A link
   that never failed has no timeline, so a query about it reads one array
   slot (most links of a world never fail). *)

type timeline = {
  mutable starts : float array;
  mutable finishes : float array;
  mutable count : int;
}

type t = timeline option array

let create ~link_count =
  if link_count < 0 then invalid_arg "Link_history.create: negative link count";
  Array.make link_count None

let timeline t link =
  if link < 0 || link >= Array.length t then invalid_arg "Link_history: link out of range";
  t.(link)

(* How many of the ascending a.(0 .. n-1) are <= x, and how many are < x. *)
let count_at_most a n x =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

let count_below a n x =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let add_interval t ~link ~start ~finish =
  let existing = timeline t link in
  if Float.is_nan start || Float.is_nan finish then
    invalid_arg "Link_history.add_interval: NaN bound";
  if finish < start then invalid_arg "Link_history.add_interval: negative duration";
  if finish > start then begin
    let tl =
      match existing with
      | Some tl -> tl
      | None ->
          let tl = { starts = [||]; finishes = [||]; count = 0 } in
          t.(link) <- Some tl;
          tl
    in
    (* Intervals lo .. hi overlap or touch [start, finish). *)
    let lo = count_below tl.finishes tl.count start in
    let hi = count_at_most tl.starts tl.count finish - 1 in
    if lo > hi then begin
      if tl.count = Array.length tl.starts then begin
        let grow a =
          let grown = Array.make (max 4 (2 * tl.count)) 0. in
          Array.blit a 0 grown 0 tl.count;
          grown
        in
        tl.starts <- grow tl.starts;
        tl.finishes <- grow tl.finishes
      end;
      Array.blit tl.starts lo tl.starts (lo + 1) (tl.count - lo);
      Array.blit tl.finishes lo tl.finishes (lo + 1) (tl.count - lo);
      tl.starts.(lo) <- start;
      tl.finishes.(lo) <- finish;
      tl.count <- tl.count + 1
    end
    else begin
      tl.starts.(lo) <- Float.min start tl.starts.(lo);
      tl.finishes.(lo) <- Float.max finish tl.finishes.(hi);
      let swallowed = hi - lo in
      Array.blit tl.starts (hi + 1) tl.starts (lo + 1) (tl.count - hi - 1);
      Array.blit tl.finishes (hi + 1) tl.finishes (lo + 1) (tl.count - hi - 1);
      tl.count <- tl.count - swallowed
    end
  end

let is_bad_at t ~link ~time =
  match timeline t link with
  | None -> false
  | Some tl ->
      let k = count_at_most tl.finishes tl.count time in
      k < tl.count && tl.starts.(k) <= time

let path_is_good_at t ~links ~time =
  Array.for_all (fun link -> not (is_bad_at t ~link ~time)) links

let bad_fraction_at t ~time ~relevant =
  if Array.length relevant = 0 then 0.
  else begin
    let bad =
      Array.fold_left (fun acc link -> if is_bad_at t ~link ~time then acc + 1 else acc) 0 relevant
    in
    float_of_int bad /. float_of_int (Array.length relevant)
  end

let intervals t ~link =
  match timeline t link with
  | None -> []
  | Some tl -> List.init tl.count (fun k -> (tl.starts.(k), tl.finishes.(k)))

let replay t ~engine ~state ~horizon =
  (* Links ascend, so if the engine breaks time ties by insertion order the
     replay stays reproducible. *)
  Array.iteri
    (fun link -> function
      | None -> ()
      | Some tl ->
          for k = 0 to tl.count - 1 do
            let start = Float.max 0. tl.starts.(k)
            and finish = Float.min horizon tl.finishes.(k) in
            if finish > start then begin
              Engine.schedule_at engine ~time:start (fun _ -> Link_state.set_bad state link);
              Engine.schedule_at engine ~time:finish (fun _ -> Link_state.set_good state link)
            end
          done)
    t
