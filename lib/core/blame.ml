module Observation = Concilium_tomography.Observation

type config = { accuracy : float; delta : float; guilt_threshold : float }

let paper_config = { accuracy = 0.9; delta = 60.; guilt_threshold = 0.4 }

let check_config config =
  if config.accuracy <= 0.5 || config.accuracy > 1. then
    invalid_arg "Blame: accuracy must lie in (0.5, 1]";
  if config.delta < 0. then invalid_arg "Blame: negative delta";
  if config.guilt_threshold < 0. || config.guilt_threshold > 1. then
    invalid_arg "Blame: threshold outside [0,1]"

let link_bad_confidence ~accuracy ~up_votes ~down_votes =
  let total = up_votes + down_votes in
  if total = 0 then 0.
  else begin
    let up = float_of_int up_votes and down = float_of_int down_votes in
    ((up *. (1. -. accuracy)) +. (down *. accuracy)) /. float_of_int total
  end

type selection = {
  counted : Observation.observation list array;
  excluded : int;
  deduped : int;
}

(* One vote per prober, the prober's latest in insertion order winning, at
   the prober's first-occurrence position. One pass finds each prober's
   latest vote; a second emits it where the prober first appears. Both
   passes follow the list, never the table, so no hash order leaks. *)
let latest_per_prober window =
  let latest = Hashtbl.create 16 in
  List.iter
    (fun (obs : Observation.observation) -> Hashtbl.replace latest obs.prober obs)
    window;
  List.filter_map
    (fun (obs : Observation.observation) ->
      match Hashtbl.find_opt latest obs.prober with
      | Some vote ->
          Hashtbl.remove latest obs.prober;
          Some vote
      | None -> None)
    window

let select config observations ~probers ~exclude_prober ~one_vote_per_prober ~links ~drop_time =
  check_config config;
  let lo = drop_time -. config.delta and hi = drop_time +. config.delta in
  (* Only the judge's visible probers' rounds are read, and the excluded
     prober's votes are counted, never built. *)
  let window = Observation.window observations ~probers ~exclude:exclude_prober ~links ~lo ~hi in
  let deduped = ref 0 in
  let counted =
    if not one_vote_per_prober then window.Observation.votes
    else
      Array.map
        (fun kept ->
          let votes = latest_per_prober kept in
          deduped := !deduped + (List.length kept - List.length votes);
          votes)
        window.Observation.votes
  in
  { counted; excluded = window.Observation.excluded; deduped = !deduped }

let bad_confidence config ~up groups =
  check_config config;
  Array.fold_left
    (fun best votes ->
      match votes with
      | [] -> best
      | _ :: _ ->
          let up_votes = List.length (List.filter up votes) in
          max best
            (link_bad_confidence ~accuracy:config.accuracy ~up_votes
               ~down_votes:(List.length votes - up_votes)))
    0. groups

let blame_of_groups config ~up groups = 1. -. bad_confidence config ~up groups

type verdict = Guilty | Innocent

let verdict_of_blame config value =
  check_config config;
  if value >= config.guilt_threshold then Guilty else Innocent

let pp_verdict fmt = function
  | Guilty -> Format.pp_print_string fmt "guilty"
  | Innocent -> Format.pp_print_string fmt "innocent"
