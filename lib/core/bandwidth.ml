module Jump_table_model = Concilium_overlay.Jump_table_model

(* Per-message wire sizes shared with the protocol's live byte accounting,
   so the analytic model and the simulator meter the same formats. *)
let probe_packet_bytes = 30
let advert_entry_bytes = 144 + 1 (* signed entry + path-loss summary *)
let advert_overhead_bytes = 20 + 128 (* header + PSS-R signature *)
let probe_stripe_bytes ~leaves = leaves * probe_packet_bytes
let advert_bytes ~entries = advert_overhead_bytes + (entries * advert_entry_bytes)
let heavy_burst_bytes ~rounds ~leaves = rounds * leaves * probe_packet_bytes

let paper_overlay_size = 100_000

(* Section 4.4: 16-node leaf sets; heavyweight probing sends 100 stripes of
   2 packets to each pair of tree leaves. *)
let leaf_set_size = 16
let stripes_per_pair = 100
let packets_per_stripe = 2

let expected_routing_entries ~overlay_size =
  Jump_table_model.expected_routing_entries ~n:overlay_size ~leaf_set_size

let advertised_state_bytes ~overlay_size =
  expected_routing_entries ~overlay_size *. float_of_int advert_entry_bytes

let heavyweight_probe_bytes ~overlay_size =
  let leaves = expected_routing_entries ~overlay_size in
  let pairs = leaves *. (leaves -. 1.) /. 2. in
  pairs
  *. float_of_int stripes_per_pair
  *. float_of_int packets_per_stripe
  *. float_of_int probe_packet_bytes

let lightweight_extra_bytes = 0.

type report_row = { label : string; value : float; unit_ : string }

let report ~overlay_size =
  [
    {
      label = "expected routing entries";
      value = expected_routing_entries ~overlay_size;
      unit_ = "entries";
    };
    {
      label = "advertised routing state";
      value = advertised_state_bytes ~overlay_size /. 1024.;
      unit_ = "KiB";
    };
    {
      label = "heavyweight probing (outgoing, per tree)";
      value = heavyweight_probe_bytes ~overlay_size /. (1024. *. 1024.);
      unit_ = "MiB";
    };
    { label = "lightweight probing (extra)"; value = lightweight_extra_bytes; unit_ = "B" };
  ]
