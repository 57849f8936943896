(** The conformance-checking harness behind [check.exe].

    {!run_budget} executes a budget of generated schedules through
    {!Lockstep.run}, fanning out over a domain pool with pre-split
    per-schedule seeds so the transcript is byte-identical for every
    [--domains] value. The first divergent schedule (in seed order) is
    minimized with {!Shrink.ddmin} into a 1-minimal reproducer.

    {!artifact} renders a counterexample as a self-contained JSON document
    — the schedule, the active mutation, the divergence — and {!replay}
    runs such a document back through the same lockstep driver, so a CI
    failure is reproducible locally from the uploaded file alone.

    {!reconcile_bytes} is the orthogonal end-to-end check: a full protocol
    run under a chaos plan whose per-message byte accounting
    ([Protocol.control_bytes_sent] summed over nodes) must equal the obs
    layer's byte counters exactly. *)

type outcome = {
  seed : int;
  ops : int;
  divergence : Lockstep.divergence option;
}

type report = {
  outcomes : outcome list;  (** in seed order *)
  divergent : int;
  counterexample : (Schedule.t * Lockstep.divergence) option;
      (** first divergent schedule, minimized *)
}

val run_budget :
  ?domains:int ->
  ?mutation:Lockstep.mutation ->
  base_seed:int ->
  budget:int ->
  unit ->
  report
(** Schedules use seeds [base_seed], [base_seed + 1], ... Deterministic in
    ([base_seed], [budget], [mutation]); independent of [domains]. *)

val render_transcript : report -> string
(** One line per schedule plus a summary line; stable across domain
    counts. *)

val artifact :
  schedule:Schedule.t ->
  mutation:Lockstep.mutation option ->
  divergence:Lockstep.divergence ->
  Concilium_util.Json.t

type replay_result = {
  schedule : Schedule.t;
  mutation : Lockstep.mutation option;
  replay_divergence : Lockstep.divergence option;
      (** what re-running the artifact's schedule produces now *)
}

val replay : string -> (replay_result, string) result
(** Parse an {!artifact} document and re-run its schedule under its
    mutation. *)

type reconciliation = { metered : int; charged : int }
(** [metered]: sum of the obs byte counters ([bytes.probe_stripe],
    [bytes.advert_diff], [bytes.snapshot_exchange], [bytes.heavy_probe]).
    [charged]: [Protocol.control_bytes_sent] summed over all nodes. The
    two must be equal, and positive. *)

val reconcile_bytes : seed:int -> reconciliation
(** Full protocol run (probing, a few diagnosed messages, an advertisement
    exchange) under a moderate chaos plan, deterministic in [seed]. *)
