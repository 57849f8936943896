(** Synthetic Internet-like topology generator.

    The paper evaluates on a router-level map from the SCAN project
    (112,969 routers, 181,639 links); that dataset is not redistributable,
    so we substitute a deterministic transit-stub hierarchy (GT-ITM style)
    of matching scale and shape: a meshed core of transit domains, stub
    domains hanging off transit routers, and degree-1 end hosts attached to
    stub routers. This preserves the properties the evaluation depends on —
    heavy route sharing near the core, unique last-mile links at the edge —
    as recorded in DESIGN.md. *)

type node_class = Transit | Stub | End_host

type params = {
  seed : int64;
  transit_domains : int;
  routers_per_transit : int;
  transit_chords_per_domain : int;  (** extra intra-domain random links *)
  interdomain_extra_links : int;  (** random transit-domain pairs beyond the ring *)
  stub_domains_per_transit_router : int;
  routers_per_stub : int;
  stub_chords_per_domain : int;
  end_hosts_per_stub : int;
}

type world = {
  graph : Graph.t;
  classes : node_class array;
  params : params;
}

val paper_scale : seed:int64 -> params
(** 110,400 nodes (320 transit routers, 71,680 stub routers, 38,400
    attached end hosts) and ~158.4k links. [Graph.end_hosts] also counts the
    ~5.2k stub routers left with degree 1, so it finds ~43.6k end hosts, and
    3% of them gives 1,307–1,310 overlay nodes (seeds 1, 42, 1907). *)

val small_scale : seed:int64 -> params
(** ~1/16 of paper scale; the default for quick experiment runs. *)

val tiny : seed:int64 -> params
(** A few hundred routers; unit-test sized. *)

val generate : params -> world
(** Deterministic for a given [params]. The result is always connected, and
    each stub domain reaches the transit core by exactly one link, from its
    gateway router: the shape [Routes.Hierarchy] requires. *)

val end_host_count : world -> int
val class_of : world -> int -> node_class
