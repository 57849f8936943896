module Bandwidth = Concilium_core.Bandwidth
module Pool = Concilium_util.Pool

let default_sizes = [| 1_000; 10_000; 100_000; 1_000_000 |]

let run ?pool ~sizes () =
  let paper =
    {
      Output.title =
        "Section 4.4: bandwidth model at paper parameters (expected: ~77 entries, ~11.5 KB \
         state, ~16.7 MiB probing)";
      header = [ "quantity"; "value"; "unit" ];
      rows =
        List.map
          (fun row ->
            [
              row.Bandwidth.label;
              Printf.sprintf "%.2f" row.Bandwidth.value;
              row.Bandwidth.unit_;
            ])
          (Bandwidth.report ~overlay_size:Bandwidth.paper_overlay_size);
    }
  in
  let sweep =
    {
      Output.title = "Section 4.4: overhead vs overlay size";
      header =
        [ "overlay size"; "routing entries"; "advertised state (KiB)"; "heavy probing (MiB)" ];
      rows =
        Array.to_list
          (Pool.parallel_map ?pool sizes ~f:(fun overlay_size ->
               [
                 Output.cell_i overlay_size;
                 Printf.sprintf "%.1f" (Bandwidth.expected_routing_entries ~overlay_size);
                 Printf.sprintf "%.2f" (Bandwidth.advertised_state_bytes ~overlay_size /. 1024.);
                 Printf.sprintf "%.2f"
                   (Bandwidth.heavyweight_probe_bytes ~overlay_size /. (1024. *. 1024.));
               ]));
    }
  in
  [ paper; sweep ]
