(* Wall clock and host facts. Everything measured here is reported only;
   nothing feeds back into a simulated run. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Seconds spent in [f], returned with its result. *)
let timed f =
  let t0 = now () in
  let result = f () in
  (result, now () -. t0)

let status_kb field =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let prefix = field ^ ":" in
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line when String.starts_with ~prefix line ->
            let rest = String.sub line (String.length prefix) (String.length line - String.length prefix) in
            (try Scanf.sscanf rest " %d kB" Option.some with Scanf.Scan_failure _ | End_of_file -> None)
        | _ -> scan ()
      in
      let result = scan () in
      close_in ic;
      result

(* VmHWM: the resident-set high-water mark of this process. *)
let peak_rss_mb () =
  match status_kb "VmHWM" with Some kb -> float_of_int kb /. 1024. | None -> nan

let nproc () = Domain.recommended_domain_count ()

(* Parallel results from a 1-core host measure scheduling overhead only. *)
let stamp ~pool_domains =
  let cores = nproc () in
  Printf.sprintf "host nproc=%d ocaml=%s pool_domains=%d%s" cores Sys.ocaml_version pool_domains
    (if pool_domains > 1 && cores < 2 then " label=overhead-only" else "")
