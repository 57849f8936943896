(* The two readings of a judge's blame window that [Blame.select] replaced,
   kept as references for it over the list store (test/observation_oracle.ml)
   fed the same votes in insertion order: Equation 3 scanning the store
   with its own filter and vote dedup, and the protocol's evidence
   gathering scanning the same window again with a second filter and an
   observation-level dedup. [Blame.select] over the round store must count
   exactly the votes both counted, in the same order, with the same
   defense tallies. *)

module Observation = Concilium_tomography.Observation
module Blame = Concilium_core.Blame

let confidence_of_votes config votes =
  (* votes: (prober, up) pairs for one link. *)
  let up_votes = List.length (List.filter snd votes) in
  let down_votes = List.length votes - up_votes in
  Blame.link_bad_confidence ~accuracy:config.Blame.accuracy ~up_votes ~down_votes

(* One vote per prober, the prober's latest in the list winning, at its
   first-occurrence position. *)
let dedup_votes votes =
  let rec update acc prober up =
    match acc with
    | [] -> [ (prober, up) ]
    | (p, _) :: rest when p = prober -> (p, up) :: rest
    | pair :: rest -> pair :: update rest prober up
  in
  List.fold_left (fun acc (prober, up) -> update acc prober up) [] votes

let path_bad_confidence config ~observations ~links ~drop_time ~exclude_prober
    ?(visible = fun _ -> true) ?(one_vote_per_prober = false) () =
  let lo = drop_time -. config.Blame.delta and hi = drop_time +. config.Blame.delta in
  Array.fold_left
    (fun best link ->
      let votes =
        List.filter_map
          (fun obs ->
            if obs.Observation.prober = exclude_prober || not (visible obs.Observation.prober)
            then None
            else Some (obs.Observation.prober, obs.Observation.up))
          (Observation_oracle.on_link observations ~link ~lo ~hi)
      in
      let votes = if one_vote_per_prober then dedup_votes votes else votes in
      if votes = [] then best else max best (confidence_of_votes config votes))
    0. links

let blame config ~observations ~links ~drop_time ~exclude_prober ?(visible = fun _ -> true)
    ?(one_vote_per_prober = false) () =
  1.
  -. path_bad_confidence config ~observations ~links ~drop_time ~exclude_prober ~visible
       ~one_vote_per_prober ()

(* [dedup_votes] over raw observations. *)
let dedup_observations obs_list =
  let rec update acc obs =
    match acc with
    | [] -> [ obs ]
    | o :: rest when o.Observation.prober = obs.Observation.prober -> obs :: rest
    | o :: rest -> o :: update rest obs
  in
  List.fold_left update [] obs_list

type evidence = {
  link_votes : (int * Observation.observation list) list;
      (** path links with at least one counted vote, in path order *)
  excluded : int;
  deduped : int;
}

let gather_evidence config ~observations ~visible ~suspect ~exclude_suspect_probes
    ~one_vote_per_prober ~links ~drop_time =
  let lo = drop_time -. config.Blame.delta in
  let hi = drop_time +. config.Blame.delta in
  let excluded = ref 0 in
  let deduped = ref 0 in
  let link_votes =
    Array.to_list links
    |> List.filter_map (fun link ->
           let visible =
             List.filter
               (fun obs -> visible obs.Observation.prober)
               (Observation_oracle.on_link observations ~link ~lo ~hi)
           in
           let kept =
             List.filter
               (fun obs ->
                 let keep = not (exclude_suspect_probes && obs.Observation.prober = suspect) in
                 if not keep then incr excluded;
                 keep)
               visible
           in
           let usable = if one_vote_per_prober then dedup_observations kept else kept in
           deduped := !deduped + (List.length kept - List.length usable);
           if usable = [] then None else Some (link, usable))
  in
  { link_votes; excluded = !excluded; deduped = !deduped }
