module World = Concilium_core.World
module Blame = Concilium_core.Blame
module Prng = Concilium_util.Prng
module Hashing = Concilium_util.Hashing
module Sorted = Concilium_util.Sorted
module Histogram = Concilium_stats.Histogram
module Graph = Concilium_topology.Graph
module Routes = Concilium_topology.Routes
module Failures = Concilium_netsim.Failures
module Link_history = Concilium_netsim.Link_history
module Pool = Concilium_util.Pool

type config = {
  duration : float;
  max_probe_time : float;
  delta : float;
  colluding_fraction : float;
  corroboration : float;
  exclude_suspect_probes : bool;
  global_visibility : bool;
  seed : int64;
}

let paper_config ~colluding_fraction ~seed =
  {
    duration = 7200.;
    max_probe_time = 120.;
    delta = 60.;
    colluding_fraction;
    corroboration = 1.;
    exclude_suspect_probes = true;
    global_visibility = false;
    seed;
  }

type t = {
  world : World.t;
  config : config;
  failures : Failures.t;
  schedules : float array array; (* per node: sorted probe times *)
  malicious : bool array;
}

let build_schedule rng ~duration ~max_probe_time =
  let times = ref [] in
  let clock = ref (Prng.float rng max_probe_time) in
  while !clock < duration do
    times := !clock :: !times;
    clock := !clock +. Prng.float rng max_probe_time
  done;
  Array.of_list (List.rev !times)

let create ~world config =
  let rng = Prng.of_seed config.seed in
  let failure_rng = Prng.split rng in
  let schedule_rng = Prng.split rng in
  let malice_rng = Prng.split rng in
  let graph = world.World.generated.World.Generate.graph in
  let routes = World.all_peer_paths world in
  let failures =
    Failures.generate ~rng:failure_rng ~config:Failures.paper_config
      ~link_count:(Graph.link_count graph) ~routes ~duration:config.duration
  in
  let node_count = World.node_count world in
  let schedules =
    Array.init node_count (fun _ ->
        build_schedule schedule_rng ~duration:config.duration
          ~max_probe_time:config.max_probe_time)
  in
  let malicious = Array.make node_count false in
  if config.colluding_fraction > 0. then begin
    let target = int_of_float (Float.round (config.colluding_fraction *. float_of_int node_count)) in
    Array.iter
      (fun v -> malicious.(v) <- true)
      (Prng.sample_without_replacement malice_rng (min target node_count) node_count)
  end;
  { world; config; failures; schedules; malicious }

let world t = t.world
let config t = t.config

let mean_bad_fraction t =
  Failures.mean_bad_fraction t.failures ~duration:t.config.duration ~samples:64

(* Deterministic probe noise: whether prober v misclassifies link l on its
   i-th probe. Any verifier recomputing the observation derives the same
   bit. *)
let misclassifies t ~prober ~link ~probe_index =
  let h = Hashing.fnv1a_int Hashing.offset (Int64.of_int prober) in
  let h = Hashing.fnv1a_int h (Int64.of_int link) in
  let h = Hashing.fnv1a_int h (Int64.of_int probe_index) in
  let h = Hashing.fnv1a_int h t.config.seed in
  let noise_rng = Prng.of_seed h in
  Prng.uniform noise_rng > Blame.paper_config.Blame.accuracy

(* Whether a colluder actually lies on this observation. At corroboration
   1.0 (the paper's Figure 5(b) setting) the short-circuit keeps the
   computation — and thus every derived byte — identical to a world with
   no corroboration knob at all. Below 1.0 the decision is a deterministic
   hash of the same coordinates as probe noise, salted so the two bits are
   independent. *)
let colludes t ~prober ~link ~probe_index =
  t.config.corroboration >= 1.
  ||
  let h = Hashing.fnv1a_int Hashing.offset 0x636f6c6cL (* "coll" *) in
  let h = Hashing.fnv1a_int h (Int64.of_int prober) in
  let h = Hashing.fnv1a_int h (Int64.of_int link) in
  let h = Hashing.fnv1a_int h (Int64.of_int probe_index) in
  let h = Hashing.fnv1a_int h t.config.seed in
  Prng.uniform (Prng.of_seed h) < t.config.corroboration

type judgment = {
  judge : int;
  suspect : int;
  next_hop : int;
  time : float;
  path_actually_good : bool;
  blame : float;
  votes_used : int;
}

let judge t ~judge:a ~suspect:b ~next_hop:c ~time =
  match World.ip_path t.world ~from_node:b ~to_node:c with
  | None -> None
  | Some path ->
      let links = path.Routes.links in
      let lo = time -. t.config.delta and hi = time +. t.config.delta in
      let visible prober =
        t.config.global_visibility || prober = a || World.is_peer t.world a prober
      in
      let excluded prober = t.config.exclude_suspect_probes && prober = b in
      let votes_used = ref 0 in
      let worst = ref 0. in
      Array.iter
        (fun link ->
          let up_votes = ref 0 and down_votes = ref 0 in
          List.iter
            (fun prober ->
              if (not (excluded prober)) && visible prober then begin
                let schedule = t.schedules.(prober) in
                let first = Sorted.lower_bound compare schedule lo in
                let stop = Sorted.upper_bound compare schedule hi in
                for probe_index = first to stop - 1 do
                  let probe_time = schedule.(probe_index) in
                  let observed_up =
                    if
                      t.malicious.(prober)
                      && t.config.colluding_fraction > 0.
                      && colludes t ~prober ~link ~probe_index
                    then
                      (* Strategic inversion: claim "down" to shield a fellow
                         colluder, "up" to frame an innocent suspect. *)
                      not t.malicious.(b)
                    else begin
                      let truly_up =
                        not
                          (Link_history.is_bad_at t.failures.Failures.history ~link
                             ~time:probe_time)
                      in
                      if misclassifies t ~prober ~link ~probe_index then not truly_up
                      else truly_up
                    end
                  in
                  incr votes_used;
                  if observed_up then incr up_votes else incr down_votes
                done
              end)
            (World.vouchers t.world ~link);
          worst :=
            Float.max !worst
              (Blame.link_bad_confidence ~accuracy:Blame.paper_config.Blame.accuracy ~up_votes:!up_votes
                 ~down_votes:!down_votes))
        links;
      let path_actually_good =
        Link_history.path_is_good_at t.failures.Failures.history ~links ~time
      in
      Some
        {
          judge = a;
          suspect = b;
          next_hop = c;
          time;
          path_actually_good;
          blame = 1. -. !worst;
          votes_used = !votes_used;
        }

let sample_judgment t ~rng =
  let node_count = World.node_count t.world in
  let a = Prng.int rng node_count in
  let peers_a = t.world.World.peers.(a) in
  if Array.length peers_a = 0 then None
  else begin
    let b = peers_a.(Prng.int rng (Array.length peers_a)) in
    let peers_b = t.world.World.peers.(b) in
    if Array.length peers_b = 0 then None
    else begin
      let c = peers_b.(Prng.int rng (Array.length peers_b)) in
      if c = a || c = b then None
      else begin
        let time =
          t.config.delta +. Prng.float rng (t.config.duration -. (2. *. t.config.delta))
        in
        judge t ~judge:a ~suspect:b ~next_hop:c ~time
      end
    end
  end

type result = {
  faulty_pdf : Histogram.t;
  nonfaulty_pdf : Histogram.t;
  p_good : float;
  p_faulty : float;
  faulty_samples : int;
  nonfaulty_samples : int;
}

(* The judgment draw is rejection sampling, so the work is split into
   shards — each with its own pre-split stream and sample quota — whose
   count is a pure function of the WORKLOAD, never of the domain count:
   the split changes the byte stream, so deriving it from the pool size
   would break `--domains N` byte-identity. Shard results merge in shard
   order, so output is identical however the shards are scheduled.

   Granularity: at least 64 samples per shard so per-shard dispatch cost
   vanishes against the judgment work (the old fixed 32 shards left
   single-digit quotas on small runs), capped at 256 shards so any
   realistic pool still load-balances large runs. *)
let shard_count ~samples = min 256 (max 1 (samples / 64))

(* Per-shard accumulation: accepted blame values (in draw order) and guilty
   counts for each population. *)
type shard = {
  mutable faulty : float list;  (* reversed draw order *)
  mutable faulty_guilty : int;
  mutable nonfaulty : float list;
  mutable nonfaulty_guilty : int;
  mutable accepted : int;
}

let run_shard t ~rng ~quota =
  let s = { faulty = []; faulty_guilty = 0; nonfaulty = []; nonfaulty_guilty = 0; accepted = 0 } in
  let collusion = t.config.colluding_fraction > 0. in
  let attempts = ref 0 in
  let max_attempts = 200 * quota in
  while s.accepted < quota && !attempts < max_attempts do
    incr attempts;
    match sample_judgment t ~rng with
    | None -> ()
    | Some j ->
        let guilty = j.blame >= Blame.paper_config.Blame.guilt_threshold in
        if j.path_actually_good then begin
          (* The network is exonerated: a drop here means the suspect really
             ate the message. Under collusion the paper's droppers are the
             colluders, so only malicious suspects enter this population. *)
          if (not collusion) || t.malicious.(j.suspect) then begin
            s.faulty <- j.blame :: s.faulty;
            if guilty then s.faulty_guilty <- s.faulty_guilty + 1;
            s.accepted <- s.accepted + 1
          end
        end
        else begin
          if (not collusion) || not t.malicious.(j.suspect) then begin
            s.nonfaulty <- j.blame :: s.nonfaulty;
            if guilty then s.nonfaulty_guilty <- s.nonfaulty_guilty + 1;
            s.accepted <- s.accepted + 1
          end
        end
  done;
  s

let run ?pool t ~samples ~bins =
  let rng = Prng.of_seed (Int64.add t.config.seed 0x5151L) in
  let shard_count = shard_count ~samples in
  (* Spread [samples] over the shards, remainder to the first ones. *)
  let quota i = (samples / shard_count) + (if i < samples mod shard_count then 1 else 0) in
  let shards =
    Pool.parallel_init_rng ?pool shard_count ~rng ~f:(fun i rng ->
        run_shard t ~rng ~quota:(quota i))
  in
  let faulty_pdf = Histogram.create ~lo:0. ~hi:1. ~bins in
  let nonfaulty_pdf = Histogram.create ~lo:0. ~hi:1. ~bins in
  let faulty_guilty = ref 0 and nonfaulty_guilty = ref 0 in
  Array.iter
    (fun s ->
      List.iter (Histogram.add faulty_pdf) s.faulty;
      List.iter (Histogram.add nonfaulty_pdf) s.nonfaulty;
      faulty_guilty := !faulty_guilty + s.faulty_guilty;
      nonfaulty_guilty := !nonfaulty_guilty + s.nonfaulty_guilty)
    shards;
  let faulty_samples = Histogram.total faulty_pdf in
  let nonfaulty_samples = Histogram.total nonfaulty_pdf in
  {
    faulty_pdf;
    nonfaulty_pdf;
    p_good =
      (if nonfaulty_samples = 0 then 0.
       else float_of_int !nonfaulty_guilty /. float_of_int nonfaulty_samples);
    p_faulty =
      (if faulty_samples = 0 then 0.
       else float_of_int !faulty_guilty /. float_of_int faulty_samples);
    faulty_samples;
    nonfaulty_samples;
  }

let pdf_table ~title result =
  let centers = Histogram.bin_centers result.faulty_pdf in
  let faulty = Histogram.pdf result.faulty_pdf in
  let nonfaulty = Histogram.pdf result.nonfaulty_pdf in
  {
    Output.title;
    header = [ "blame"; "pdf(faulty)"; "pdf(non-faulty)" ];
    rows =
      List.init (Array.length centers) (fun i ->
          [
            Printf.sprintf "%.3f" centers.(i);
            Output.cell_f faulty.(i);
            Output.cell_f nonfaulty.(i);
          ]);
  }

let summary_table honest collusion =
  let row label r =
    [
      label;
      Output.cell_pct r.p_good;
      Output.cell_pct r.p_faulty;
      Output.cell_i r.nonfaulty_samples;
      Output.cell_i r.faulty_samples;
    ]
  in
  {
    Output.title =
      "Figure 5 summary: guilty-verdict rates at 40% blame threshold (paper: honest 1.8%/93.8%, \
       collusion 8.4%/71.3%)";
    header =
      [ "scenario"; "innocent guilty"; "faulty guilty"; "innocent n"; "faulty n" ];
    rows =
      (row "honest" honest
      :: (match collusion with Some c -> [ row "20% colluders" c ] | None -> []));
  }
