(* Findings and suppression directives for the whole-program analysis.

   A finding is like a lint diagnostic but carries a call trail: the chain
   of functions from a domain-pool task root down to the line where the
   offending effect originates, so a report reads as a path through the
   call graph rather than a bare line number. *)

module Json = Concilium_util.Json

type t = {
  rule : string;
  file : string;
  line : int;
  message : string;
  trail : string list;  (* call chain, task root first; [] when not a path rule *)
}

let compare_finding a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> ( match String.compare a.rule b.rule with 0 -> String.compare a.message b.message | c -> c)
      | c -> c)
  | c -> c

(* ---------- Suppressions ---------- *)

(* [(* analysis: allow <rule ...> — <reason> *)] suppresses the named rules
   on the comment's lines and the line right after it; [allow-file] covers
   the whole file.  Unlike the lint's directives, a justification after an
   em-dash (or a double hyphen) is mandatory: an allow without a reason is
   itself reported. *)
type suppression = {
  rules : string list;
  first_line : int;
  last_line : int;
  whole_file : bool;
}

let directive_re =
  Str.regexp
    "analysis:[ \t]*\\(allow-file\\|allow\\)[ \t]+\\([a-z][a-z0-9-]*\\([ \t]+[a-z][a-z0-9-]*\\)*\\)"

let reason_re = Str.regexp "\\(\xe2\x80\x94\\|--\\)[ \t]*[^ \t*]"

let matches pattern text =
  match Str.search_forward pattern text 0 with exception Not_found -> false | _ -> true

(* Returns the suppressions plus a finding for every directive that lacks a
   justification (those directives do NOT suppress anything). *)
let parse_suppressions ~file comments =
  let suppressions = ref [] in
  let invalid = ref [] in
  List.iter
    (fun (c : Concilium_lint.Lexer.comment) ->
      match Str.search_forward directive_re c.text 0 with
      | exception Not_found -> ()
      | _ ->
          let kind = Str.matched_group 1 c.text in
          let rules =
            List.filter (fun s -> s <> "") (String.split_on_char ' ' (Str.matched_group 2 c.text))
          in
          let end_of_rules = Str.match_end () in
          let rest = String.sub c.text end_of_rules (String.length c.text - end_of_rules) in
          if matches reason_re rest then
            suppressions :=
              {
                rules;
                first_line = c.start_line;
                last_line = c.end_line + 1;
                whole_file = kind = "allow-file";
              }
              :: !suppressions
          else
            invalid :=
              {
                rule = "suppression-missing-reason";
                file;
                line = c.start_line;
                message =
                  "analysis suppression lacks a justification; write (* analysis: allow <rule> \
                   \xe2\x80\x94 <reason> *)";
                trail = [];
              }
              :: !invalid)
    comments;
  (List.rev !suppressions, List.rev !invalid)

let suppressed suppressions ~rule ~line =
  List.exists
    (fun s ->
      (s.whole_file || (line >= s.first_line && line <= s.last_line))
      && (List.mem rule s.rules || List.mem "all" s.rules))
    suppressions

(* ---------- Rendering ---------- *)

let render_trail buffer trail =
  List.iteri
    (fun i step ->
      Buffer.add_string buffer (Printf.sprintf "    %s%s\n" (String.make (2 * i) ' ') step))
    trail

let render_text buffer findings =
  List.iter
    (fun f ->
      Buffer.add_string buffer (Printf.sprintf "%s:%d: error [%s] %s\n" f.file f.line f.rule f.message);
      render_trail buffer f.trail)
    findings

let to_json findings =
  let item f =
    let trail = String.concat ", " (List.map Json.quote f.trail) in
    Printf.sprintf
      "  {\"file\": %s, \"line\": %d, \"rule\": %s, \"message\": %s, \"trail\": [%s]}"
      (Json.quote f.file) f.line (Json.quote f.rule) (Json.quote f.message) trail
  in
  "[\n" ^ String.concat ",\n" (List.map item findings) ^ "\n]"
