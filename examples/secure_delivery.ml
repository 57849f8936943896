(* Secure overlay routing under attack (paper Section 2).

   Concilium's verdicts, accusations and DHT traffic must survive a
   partially hostile overlay, which is why the paper builds on Castro's
   secure routing. This example marks a growing fraction of a Pastry
   overlay as message-eating and compares plain prefix routing with
   leaf-set-redundant transmission; it then zooms into one failed route to
   show the redundant copies at work.

       dune exec examples/secure_delivery.exe *)

module Pastry = Concilium_overlay.Pastry
module Secure_routing = Concilium_overlay.Secure_routing
module Id = Concilium_overlay.Id
module Prng = Concilium_util.Prng

let () =
  let rng = Prng.of_string_seed "secure-delivery" in
  let ids = Array.init 400 (fun _ -> Id.random rng) in
  let overlay = Pastry.build ids in
  Printf.printf "overlay of %d nodes; %d-member leaf sets\n\n" (Pastry.node_count overlay)
    (2 * Pastry.leaf_half_size overlay);
  print_endline "delivery probability (300 trials per point):";
  print_endline "  faulty   standard   redundant";
  List.iter
    (fun fraction ->
      let rate mode =
        Secure_routing.delivery_probability overlay ~rng ~faulty_fraction:fraction
          ~trials:300 ~mode
      in
      Printf.printf "  %4.0f%%    %6.1f%%    %7.1f%%\n" (100. *. fraction)
        (100. *. rate `Standard)
        (100. *. rate `Redundant))
    [ 0.; 0.1; 0.2; 0.25; 0.3; 0.4 ];

  (* Zoom in: find a key whose direct route dies, then watch the copies. *)
  let faulty v = v mod 4 = 1 (* 25% of nodes eat messages *) in
  let rec find_broken attempts =
    if attempts = 0 then None
    else begin
      let dest = Id.random rng in
      let attempt = Secure_routing.standard_delivery overlay ~from:0 ~dest ~faulty in
      if attempt.Secure_routing.delivered then find_broken (attempts - 1)
      else Some (dest, attempt)
    end
  in
  match find_broken 500 with
  | None -> print_endline "\n(no broken direct route found at this seed)"
  | Some (dest, direct) ->
      Printf.printf "\ndirect route for key %s... fails:\n  %s\n"
        (String.sub (Id.to_hex dest) 0 8)
        (String.concat " -> "
           (List.map
              (fun v -> if faulty v then Printf.sprintf "[%d!]" v else string_of_int v)
              direct.Secure_routing.hops));
      let result = Secure_routing.redundant_route overlay ~from:0 ~dest ~faulty in
      Printf.printf "redundant transmission: %d copies, delivered = %b\n"
        result.Secure_routing.copies_sent result.Secure_routing.delivered;
      List.iteri
        (fun i attempt ->
          if i < 6 then
            Printf.printf "  copy %d via %s: %s\n" i
              (if attempt.Secure_routing.via = -1 then "direct route"
               else Printf.sprintf "leaf neighbor %d" attempt.Secure_routing.via)
              (if attempt.Secure_routing.delivered then "DELIVERED" else "lost"))
        result.Secure_routing.attempts
