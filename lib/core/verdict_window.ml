module Ring_buffer = Concilium_util.Ring_buffer

type 'evidence entry = {
  verdict : Blame.verdict;
  blame : float;
  drop_time : float;
  evidence : 'evidence;
}

type 'evidence t = 'evidence entry Ring_buffer.t

let create ~window_size = Ring_buffer.create window_size
let record t entry = ignore (Ring_buffer.push t entry)
let length = Ring_buffer.length

let guilty_count t =
  Ring_buffer.count (fun e -> match e.verdict with Blame.Guilty -> true | Blame.Innocent -> false) t

let entries = Ring_buffer.to_list

let guilty_entries t =
  List.filter
    (fun e -> match e.verdict with Blame.Guilty -> true | Blame.Innocent -> false)
    (entries t)

let should_accuse t ~m = guilty_count t >= m
