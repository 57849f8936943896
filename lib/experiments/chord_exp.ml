module Chord = Concilium_overlay.Chord
module Id = Concilium_overlay.Id
module Ring = Concilium_overlay.Ring
module Density_test = Concilium_overlay.Density_test
module Prng = Concilium_util.Prng
module Descriptive = Concilium_stats.Descriptive
module Pool = Concilium_util.Pool

type point = {
  n : int;
  analytic_mean : float;
  monte_carlo_mean : float;
  route_length : float;
}

let run ?pool ~seed ~sizes ~trials () =
  let rng = Prng.of_seed seed in
  (* One pre-split stream per overlay size; inside a task the draws are
     strictly sequential on that stream, so fan-out order cannot matter. *)
  Array.to_list
    (Pool.parallel_init_rng ?pool (Array.length sizes) ~rng ~f:(fun index rng ->
         let n = sizes.(index) in
         let model = Chord.Model.occupancy_model ~n in
         let samples = Chord.Model.monte_carlo_occupancy ~rng ~n ~trials in
         let ids = Array.init n (fun _ -> Id.random rng) in
         let ring = Ring.of_ids ids in
         (* Routes start at members drawn in the ids' draw order. *)
         let sources = Array.map (Ring.insertion_point ring) ids in
         {
           n;
           analytic_mean =
             model.Concilium_stats.Poisson_binomial.mu_phi /. float_of_int Chord.finger_count;
           monte_carlo_mean = Descriptive.mean samples;
           route_length = Chord.mean_route_length ring ~sources ~trials:100 ~rng;
         }))

let occupancy_table points =
  {
    Output.title =
      "Chord generalisation: finger-interval occupancy model vs Monte Carlo (and ~1/2 log2 N \
       routing)";
    header = [ "N"; "model mean"; "MC mean"; "mean hops"; "1/2 log2 N" ];
    rows =
      List.map
        (fun p ->
          [
            Output.cell_i p.n;
            Output.cell_f p.analytic_mean;
            Output.cell_f p.monte_carlo_mean;
            Printf.sprintf "%.2f" p.route_length;
            Printf.sprintf "%.2f" (0.5 *. (log (float_of_int p.n) /. log 2.));
          ])
        points;
  }

let error_rates_table ?pool ~n ~colluding_fractions () =
  let gammas = Array.init 101 (fun i -> 1.0 +. (0.01 *. float_of_int i)) in
  let honest = Chord.Model.occupancy_model ~n in
  let rows =
    Array.to_list
      (Pool.parallel_map ?pool colluding_fractions
         ~f:(fun c ->
           let malicious =
             Chord.Model.occupancy_model
               ~n:(max 2 (int_of_float (Float.round (float_of_int n *. c))))
           in
           (* Same min-sum gamma selection as the Pastry test. *)
           let best = ref (0., infinity, 0., 0.) in
           Array.iter
             (fun gamma ->
               let fp = Density_test.false_positive_rate ~gamma ~local:honest ~peer:honest in
               let fn =
                 Density_test.false_negative_rate ~gamma ~local:honest ~advertised:malicious
               in
               let _, best_sum, _, _ = !best in
               if fp +. fn < best_sum then best := (gamma, fp +. fn, fp, fn))
             gammas;
           let gamma, _, fp, fn = !best in
           [
             Printf.sprintf "%.0f%%" (100. *. c);
             Printf.sprintf "%.2f" gamma;
             Output.cell_pct fp;
             Output.cell_pct fn;
           ]))
  in
  {
    Output.title =
      Printf.sprintf "Chord density test: error rates at the min-sum gamma (N = %d)" n;
    header = [ "c"; "best gamma"; "false positive"; "false negative" ];
    rows;
  }
