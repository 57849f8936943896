module World = Concilium_core.World
module Bandwidth = Concilium_core.Bandwidth
module Tree = Concilium_tomography.Tree
module Probe_sharing = Concilium_tomography.Probe_sharing
module Prng = Concilium_util.Prng
module Pool = Concilium_util.Pool

let short_duration = 3600.

let rates_row label (result : Blame_world.result) =
  [
    label;
    Output.cell_pct result.Blame_world.p_good;
    Output.cell_pct result.Blame_world.p_faulty;
    Output.cell_i result.Blame_world.nonfaulty_samples;
    Output.cell_i result.Blame_world.faulty_samples;
  ]

let rates_header = [ "variant"; "innocent guilty"; "faulty guilty"; "innocent n"; "faulty n" ]

(* Variants fan out over the pool at this level; the nested fan-out inside
   Blame_world.run then runs inline (Pool.parallel_init detects it is
   already inside a task), so each variant stays on one domain. *)
let run_variant ?pool ~world ~samples config =
  let bw = Blame_world.create ~world config in
  Blame_world.run ?pool bw ~samples ~bins:20

let run_variants ?pool ~world ~samples configs =
  Pool.parallel_map ?pool configs ~f:(fun config -> run_variant ?pool ~world ~samples config)

let self_exclusion ?pool ~world ~samples ~seed () =
  let base =
    {
      (Blame_world.paper_config ~colluding_fraction:0.2 ~seed) with
      Blame_world.duration = short_duration;
    }
  in
  let results =
    run_variants ?pool ~world ~samples
      [| base; { base with Blame_world.exclude_suspect_probes = false } |]
  in
  {
    Output.title =
      "Ablation: excluding the suspect's own probes (Section 3.4 rule), 20% colluders";
    header = rates_header;
    rows =
      [
        rates_row "rule ON (paper)" results.(0);
        rates_row "rule OFF" results.(1);
      ];
  }

let delta_sensitivity ?pool ~world ~deltas ~samples ~seed () =
  let configs =
    Array.map
      (fun delta ->
        {
          (Blame_world.paper_config ~colluding_fraction:0. ~seed) with
          Blame_world.duration = short_duration;
          delta;
        })
      deltas
  in
  let results = run_variants ?pool ~world ~samples configs in
  let rows =
    List.init (Array.length deltas) (fun i ->
        rates_row (Printf.sprintf "Delta = %.0f s" deltas.(i)) results.(i))
  in
  {
    Output.title = "Ablation: probe-window half-width Delta (honest probing)";
    header = rates_header;
    rows;
  }

let probe_rate_sensitivity ?pool ~world ~max_probe_times ~samples ~seed () =
  let configs =
    Array.map
      (fun max_probe_time ->
        {
          (Blame_world.paper_config ~colluding_fraction:0. ~seed) with
          Blame_world.duration = short_duration;
          max_probe_time;
        })
      max_probe_times
  in
  let results = run_variants ?pool ~world ~samples configs in
  let rows =
    List.init
      (Array.length max_probe_times)
      (fun i ->
        rates_row (Printf.sprintf "max_probe_time = %.0f s" max_probe_times.(i)) results.(i))
  in
  {
    Output.title = "Ablation: lightweight probing rate (honest probing)";
    header = rates_header;
    rows;
  }

let visibility ?pool ~world ~samples ~seed () =
  let base =
    {
      (Blame_world.paper_config ~colluding_fraction:0. ~seed) with
      Blame_world.duration = short_duration;
    }
  in
  let results =
    run_variants ?pool ~world ~samples
      [| base; { base with Blame_world.global_visibility = true } |]
  in
  {
    Output.title = "Ablation: snapshot visibility (forest F_A vs global gossip), honest probing";
    header = rates_header;
    rows =
      [ rates_row "forest (protocol)" results.(0); rates_row "global (upper bound)" results.(1) ];
  }

let probe_consolidation ?pool ~world ~group_sizes ~seed () =
  let rng = Prng.of_seed seed in
  let node_count = World.node_count world in
  let trees = Array.map Tree.physical_links world.World.trees in
  let per_tree_bytes =
    Bandwidth.heavyweight_probe_bytes ~overlay_size:Bandwidth.paper_overlay_size
  in
  (* One pre-split stream per group size (member sampling). *)
  let rows =
    Array.to_list
      (Pool.parallel_init_rng ?pool (Array.length group_sizes) ~rng ~f:(fun index rng ->
           let size = min group_sizes.(index) node_count in
           (* A stub's co-residents are modeled as a random member group;
              their trees share the transit core. *)
           let members = Prng.sample_without_replacement rng size node_count in
           let plan = Probe_sharing.plan ~trees ~members in
           [
             Output.cell_i size;
             Printf.sprintf "%.2f"
               (Probe_sharing.individual_bytes plan ~per_tree_bytes /. (1024. *. 1024.));
             Printf.sprintf "%.2f"
               (Probe_sharing.consolidated_bytes plan ~per_tree_bytes /. (1024. *. 1024.));
             Printf.sprintf "%.1f%%" (100. *. (1. -. plan.Probe_sharing.amortization));
           ]))
  in
  {
    Output.title =
      "Section 3.7: consolidated probing -- heavyweight cost with stub co-residents sharing";
    header = [ "group size"; "individual (MiB)"; "consolidated (MiB)"; "saving" ];
    rows;
  }

let run_all ?pool ~world ~samples ~seed () =
  [
    self_exclusion ?pool ~world ~samples ~seed ();
    delta_sensitivity ?pool ~world ~deltas:[| 15.; 30.; 60.; 120.; 240. |] ~samples ~seed ();
    probe_rate_sensitivity ?pool ~world ~max_probe_times:[| 60.; 120.; 300.; 600. |] ~samples
      ~seed ();
    visibility ?pool ~world ~samples ~seed ();
    probe_consolidation ?pool ~world ~group_sizes:[| 1; 2; 4; 8; 16 |] ~seed ();
  ]
