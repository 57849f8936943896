(* Outcome digests of earlier runs, kept per (workload, seed, benchmark
   binary) under .perfbench/ in the working directory, so a repeated run of
   one seed is checked against every checkpoint the two runs share. Keying
   on the binary keeps a rebuilt program from being held to the outcomes
   of the old one. *)

let dir = Filename.concat ".perfbench" "digests"

let path ~workload ~seed =
  let binary = String.sub (Stdlib.Digest.to_hex (Stdlib.Digest.file Sys.executable_name)) 0 12 in
  Filename.concat dir (Printf.sprintf "%s-seed%Ld-%s.txt" workload seed binary)

let load path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec read acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line -> read (Scanf.sscanf line "%d %Lx" (fun n h -> (n, h)) :: acc)
      in
      let entries = read [] in
      close_in ic;
      entries

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

(* Compare [checkpoints] with the stored ones, then store their union.
   [Error] names the first checkpoint that differs. *)
let check_and_save ~workload ~seed checkpoints =
  let path = path ~workload ~seed in
  let stored = load path in
  let mismatch =
    List.find_opt
      (fun (n, h) -> match List.assoc_opt n stored with Some h' -> h <> h' | None -> false)
      checkpoints
  in
  match mismatch with
  | Some (n, h) ->
      Error
        (Printf.sprintf "outcome digest after %d lines is %016Lx, an earlier run of seed %Ld had %016Lx" n h
           seed (List.assoc n stored))
  | None ->
      let merged =
        List.sort_uniq compare (stored @ List.filter (fun (n, _) -> not (List.mem_assoc n stored)) checkpoints)
      in
      mkdir_p dir;
      let tmp = path ^ ".tmp" in
      let oc = open_out tmp in
      List.iter (fun (n, h) -> Printf.fprintf oc "%d %016Lx\n" n h) merged;
      close_out oc;
      Sys.rename tmp path;
      Ok ()
