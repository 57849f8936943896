module Json = Concilium_util.Json

let print_text out diagnostics =
  List.iter
    (fun (d : Rules.diagnostic) ->
      Printf.fprintf out "%s:%d: %s [%s] %s\n" d.Rules.file d.Rules.line
        (Rules.severity_to_string d.Rules.severity)
        d.Rules.rule d.Rules.message)
    diagnostics;
  let errors =
    List.length
      (List.filter (fun (d : Rules.diagnostic) -> d.Rules.severity = Rules.Error) diagnostics)
  in
  let warnings = List.length diagnostics - errors in
  if diagnostics = [] then Printf.fprintf out "lint: clean\n"
  else Printf.fprintf out "lint: %d error(s), %d warning(s)\n" errors warnings

let to_json diagnostics =
  let item (d : Rules.diagnostic) =
    Printf.sprintf
      "  {\"file\": %s, \"line\": %d, \"rule\": %s, \"severity\": %s, \"message\": %s}"
      (Json.quote d.Rules.file) d.Rules.line (Json.quote d.Rules.rule)
      (Json.quote (Rules.severity_to_string d.Rules.severity))
      (Json.quote d.Rules.message)
  in
  "[\n" ^ String.concat ",\n" (List.map item diagnostics) ^ "\n]"

let print_json out diagnostics = Printf.fprintf out "%s\n" (to_json diagnostics)

let print_catalog out =
  List.iter
    (fun (id, family, message) ->
      Printf.fprintf out "%-20s %-20s %s\n" id (Rules.family_to_string family) message)
    Rules.catalog
