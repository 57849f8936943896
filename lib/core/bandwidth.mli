(** Analytic bandwidth model (paper Section 4.4).

    Two overheads dominate: exchanging signed, timestamped routing state,
    and heavyweight striped probing. Routing state references mu_phi + 16
    peers; each entry is a 16-byte identifier plus a 4-byte freshness
    timestamp which, with a 1024-bit PSS-R signature, consumes 144 bytes,
    plus one byte of path-loss summary. Heavyweight probing of a tree
    costs (leaves choose 2) * stripes_per_pair * stripe_size * pkt_size
    outgoing bytes. *)

(** {2 Per-message wire sizes}

    Shared with the protocol's live byte accounting so the simulator and
    this analytic model meter identical formats — and so an observability
    layer can reconcile per-message-type counters against the protocol's
    control-byte totals. *)

val probe_packet_bytes : int
(** One probe packet: IP + UDP headers + 16-bit nonce (30 B). *)

val advert_entry_bytes : int
(** One advertised entry: signed id + timestamp (144 B) plus its 1-byte
    path-loss summary. *)

val advert_overhead_bytes : int
(** Fixed advertisement cost: 20 B header + 128 B PSS-R signature. *)

val probe_stripe_bytes : leaves:int -> int
(** Bytes for one lightweight probe round over a tree with [leaves]. *)

val advert_bytes : entries:int -> int
(** Bytes for one snapshot advertisement carrying [entries] entries. *)

val heavy_burst_bytes : rounds:int -> leaves:int -> int
(** Bytes for a heavyweight burst of [rounds] striped rounds. *)

val paper_overlay_size : int
(** 100,000 nodes. *)

(** {2 The Section 4.4 model}

    Functions of the overlay size alone: 16-node leaf sets, 145 B
    advertised entries ({!advert_entry_bytes}), 100 stripes of 2 probe
    packets ({!probe_packet_bytes}) per pair of tree leaves. *)

val expected_routing_entries : overlay_size:int -> float
(** mu_phi + leaf-set size (~77 at paper scale). *)

val advertised_state_bytes : overlay_size:int -> float
(** Size of a full advertised routing table (~11.5 KB at paper scale). *)

val heavyweight_probe_bytes : overlay_size:int -> float
(** Outgoing bytes to probe one tree (~16.7 MiB at paper scale). *)

val lightweight_extra_bytes : float
(** Additional bandwidth of lightweight probing beyond the availability
    probes the overlay already sends: zero, by construction. *)

type report_row = { label : string; value : float; unit_ : string }

val report : overlay_size:int -> report_row list
(** The Section 4.4 figures as printable rows. *)
