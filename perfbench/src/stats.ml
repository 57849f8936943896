(* Order statistics for latency samples.

   Percentiles use the nearest-rank rule on integer parts-per-million, so
   a rank never depends on float rounding: p of n samples is the value at
   rank ceil(p * n). A percentile is reportable when at least ten samples
   lie beyond it. *)

type percentile = { label : string; ppm : int }

let ladder =
  [
    { label = "p50"; ppm = 500_000 };
    { label = "p90"; ppm = 900_000 };
    { label = "p99"; ppm = 990_000 };
    { label = "p99.9"; ppm = 999_000 };
    { label = "p99.99"; ppm = 999_900 };
  ]

let p50 = List.nth ladder 0
let p90 = List.nth ladder 1

let rank ~n p = max 1 ((p.ppm * n + 999_999) / 1_000_000)
let beyond ~n p = n - rank ~n p

let sorted samples =
  let copy = Array.copy samples in
  Array.sort Float.compare copy;
  copy

let value sorted p =
  let n = Array.length sorted in
  if n = 0 then nan else sorted.(rank ~n p - 1)

let tail ~n = List.fold_left (fun best p -> if beyond ~n p >= 10 then Some p else best) None ladder

let median samples = value (sorted samples) p50

(* One line: median, the highest percentile with ten samples beyond it,
   and the sample count. *)
let describe ~name ~unit samples =
  let s = sorted samples in
  let n = Array.length s in
  match tail ~n with
  | None -> Printf.sprintf "%s.p50 = %.4f %s (n=%d, too few samples for any percentile)" name (value s p50) unit n
  | Some p when p.ppm = p50.ppm -> Printf.sprintf "%s.p50 = %.4f %s (n=%d, too few samples for a tail)" name (value s p50) unit n
  | Some p ->
      Printf.sprintf "%s.p50 = %.4f %s, %s.%s = %.4f %s (n=%d)" name (value s p50) unit name p.label
        (value s p) unit n
