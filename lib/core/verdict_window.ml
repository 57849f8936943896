module Ring_buffer = Concilium_util.Ring_buffer

type 'evidence t = {
  m : int;
  slots : (Blame.verdict * float) Ring_buffer.t; (* verdict, drop time *)
  mutable guilty : int;
  evidence : 'evidence Ring_buffer.t; (* of the newest m guilty verdicts *)
}

let create ~window_size ~m =
  {
    m;
    slots = Ring_buffer.create window_size;
    guilty = 0;
    evidence = Ring_buffer.create m;
  }

let record t verdict ~drop_time evidence =
  (match Ring_buffer.push t.slots (verdict, drop_time) with
  | Some (Blame.Guilty, _) -> t.guilty <- t.guilty - 1
  | Some (Blame.Innocent, _) | None -> ());
  match verdict with
  | Blame.Guilty ->
      t.guilty <- t.guilty + 1;
      ignore (Ring_buffer.push t.evidence evidence)
  | Blame.Innocent -> ()

let length t = Ring_buffer.length t.slots
let guilty_count t = t.guilty
let should_accuse t = t.guilty >= t.m
let entries t = Ring_buffer.to_list t.slots

let supporting t =
  let rec all_but_last = function [] | [ _ ] -> [] | x :: rest -> x :: all_but_last rest in
  all_but_last (Ring_buffer.to_list t.evidence)

let evidence_held t = Ring_buffer.length t.evidence
