type target = Next_hop of int | Network | Offline of int
type judgment = { target : target; pushed : bool }

type resolution = {
  final : target option;
  exonerated : int list;
  judgments_used : int;
}

let anchor judgments =
  let rec from i =
    if i >= Array.length judgments then None
    else if Option.is_some judgments.(i) then Some i
    else from (i + 1)
  in
  from 0

let resolve judgments =
  let at i = if i < Array.length judgments then judgments.(i) else None in
  (* The walk stands on position [i], whose judgment names the hop at
     [i + 1], and only moves downstream, so it ends by the last position. *)
  let rec walk i exonerated =
    match at i with
    | None -> { final = None; exonerated = []; judgments_used = 0 }
    | Some judgment -> (
        match (judgment.target, at (i + 1)) with
        | Next_hop suspect, Some next when next.pushed ->
            (* The suspect shifts blame downstream: exonerate it and adopt
               its verdict. *)
            walk (i + 1) (suspect :: exonerated)
        | target, _ ->
            (* A network or offline verdict ends the walk, and so does a
               suspect that pushed nothing (no verdict, or a withheld one):
               it keeps the blame. *)
            {
              final = Some target;
              exonerated = List.rev exonerated;
              judgments_used = List.length exonerated + 1;
            })
  in
  (* With no anchor nothing was judged, and position 0 holds nothing. *)
  walk (Option.value (anchor judgments) ~default:0) []
