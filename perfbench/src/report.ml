(* Named metrics, the human-readable lines and the final JSON line. *)

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

let line m = Printf.sprintf "metric %s = %.6g %s" m.name m.value m.unit

(* Every digit of a value; JSON has no representation for a non-finite. *)
let json_number value =
  if Float.is_finite value then Printf.sprintf "%.17g" value
  else invalid_arg "Report.json_number: non-finite metric"

let json ~correct ~attempted ~failed metrics =
  let entries =
    List.map
      (fun m -> Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} m.name (json_number m.value) m.unit)
      metrics
  in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct attempted
    failed (String.concat ", " entries)

(* A ratio whose denominator may be zero on a workload that does not
   exercise the layer: reported as 0. *)
let per ~count total = if count = 0 then 0. else total /. float_of_int count
