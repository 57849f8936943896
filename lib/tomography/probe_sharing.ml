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

let individual_bytes plan ~per_tree_bytes =
  float_of_int (Array.length plan.members) *. per_tree_bytes

let consolidated_bytes plan ~per_tree_bytes =
  individual_bytes plan ~per_tree_bytes *. plan.amortization
