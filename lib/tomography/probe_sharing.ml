type plan = {
  members : int array;
  individual_links : int;
  consolidated_links : int;
  amortization : float;
}

let plan ~trees ~members =
  if Array.length members = 0 then invalid_arg "Probe_sharing.plan: no members";
  let distinct = Hashtbl.create 1024 in
  let individual = ref 0 in
  Array.iter
    (fun member ->
      let links = trees.(member) in
      individual := !individual + Array.length links;
      Array.iter (fun link -> Hashtbl.replace distinct link ()) links)
    members;
  let consolidated = Hashtbl.length distinct in
  {
    members = Array.copy members;
    individual_links = !individual;
    consolidated_links = consolidated;
    amortization =
      (if !individual = 0 then 1. else float_of_int consolidated /. float_of_int !individual);
  }

type report = { member : int; link : int; up : bool }

type consensus = {
  link : int;
  up : bool;
  up_votes : int;
  down_votes : int;
  unanimous : bool;
}

let consolidate reports =
  (* One vote per (member, link), latest report winning — so a member
     stuffing duplicate corroborating reports moves nothing. *)
  let votes = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun r ->
      let key = (r.member, r.link) in
      if not (Hashtbl.mem votes key) then order := key :: !order;
      Hashtbl.replace votes key r.up)
    reports;
  let by_link = Hashtbl.create 64 in
  List.iter
    (fun ((_, link) as key) ->
      let up = Hashtbl.find votes key in
      let ups, downs =
        match Hashtbl.find_opt by_link link with Some c -> c | None -> (0, 0)
      in
      Hashtbl.replace by_link link (if up then (ups + 1, downs) else (ups, downs + 1)))
    !order;
  let links =
    List.sort Int.compare (Hashtbl.fold (fun link _ acc -> link :: acc) by_link [])
  in
  List.map
    (fun link ->
      let up_votes, down_votes = Hashtbl.find by_link link in
      {
        link;
        (* Ties resolve down: a split collective treats the link as
           suspect and re-probes rather than vouching for it. *)
        up = up_votes > down_votes;
        up_votes;
        down_votes;
        unanimous = up_votes = 0 || down_votes = 0;
      })
    links

let individual_bytes plan ~per_tree_bytes =
  float_of_int (Array.length plan.members) *. per_tree_bytes

let consolidated_bytes plan ~per_tree_bytes =
  individual_bytes plan ~per_tree_bytes *. plan.amortization
