type target = Next_hop of int | Network | Offline of int

type judgment = {
  judge : int;
  target : target;
  blame : float;
  pushed : bool;
}

type resolution = {
  final : target option;
  exonerated : int list;
  judgments_used : int;
}

let resolve ~first_judge ~judgment_of =
  let visited = Hashtbl.create 16 in
  let rec walk exonerated used ~own_verdict =
    match own_verdict with
    | None ->
        (* This judge issued nothing. If it is the first judge there is no
           diagnosis; otherwise the caller handles it. *)
        { final = None; exonerated = List.rev exonerated; judgments_used = used }
    | Some judgment -> (
        match judgment.target with
        | Network ->
            { final = Some Network; exonerated = List.rev exonerated; judgments_used = used + 1 }
        | Offline suspect ->
            (* An offline hop cannot push a verdict and carries no
               culpability; the chain terminates on it. *)
            {
              final = Some (Offline suspect);
              exonerated = List.rev exonerated;
              judgments_used = used + 1;
            }
        | Next_hop suspect -> (
            if Hashtbl.mem visited suspect then
              (* Malformed (cyclic) chain: stop at the current suspect. *)
              {
                final = Some (Next_hop suspect);
                exonerated = List.rev exonerated;
                judgments_used = used + 1;
              }
            else begin
              Hashtbl.replace visited suspect ();
              match judgment_of suspect with
              | Some pushed_verdict when pushed_verdict.pushed ->
                  (* The suspect shifts blame downstream: exonerate it and
                     adopt its verdict. *)
                  walk (suspect :: exonerated) (used + 1) ~own_verdict:(Some pushed_verdict)
              | Some _ | None ->
                  (* No verdict, or a withheld one: the suspect keeps the
                     blame. *)
                  {
                    final = Some (Next_hop suspect);
                    exonerated = List.rev exonerated;
                    judgments_used = used + 1;
                  }
            end))
  in
  Hashtbl.replace visited first_judge ();
  walk [] 0 ~own_verdict:(judgment_of first_judge)

