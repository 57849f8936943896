(** Fuzzy-logic blame attribution (paper Section 3.4, Equations 2 and 3).

    When A's message through B towards Z goes unacknowledged, A computes
    the probability that the IP path from B to its next hop C was bad, from
    the probe results covering the path's links in the window
    [t - Delta, t + Delta]:

      Pr(B->C bad) = max over links l of
        (sum over p in probes(l) of [p.up*(1-a) + (1-p.up)*a]) / |probes(l)|

    where a is probe accuracy and max is fuzzy-logic OR. Blame for B is the
    complement: Pr(B faulty) = 1 - Pr(B->C bad). B's own probe results are
    excluded so B cannot exculpate itself with fabricated data.

    The votes a judge counts are also the evidence it signs: {!select}
    reads the window once, and the judge, an accusation's verifier and the
    provenance replay all fold their votes through {!bad_confidence}. *)

module Observation = Concilium_tomography.Observation

type config = {
  accuracy : float;  (** a: probability a probe classifies a link correctly *)
  delta : float;  (** window half-width in seconds (the paper uses 60 s) *)
  guilt_threshold : float;  (** blame above this yields a guilty verdict (the paper studies 0.4) *)
}

val paper_config : config
(** a = 0.9, Delta = 60 s, threshold = 0.4. *)

val link_bad_confidence : accuracy:float -> up_votes:int -> down_votes:int -> float
(** The inner average of Equation 3 for one link: each "up" probe
    contributes (1 - a), each "down" probe contributes a. *)

type selection = {
  counted : Observation.observation list array;
      (** one entry per path link, in path order (a repeated link appears
          once per occurrence): the votes counted, in counting order *)
  excluded : int;  (** visible votes removed because their prober was excluded *)
  deduped : int;  (** votes collapsed by one-vote-per-prober, after exclusion *)
}

val select :
  config ->
  Observation.t ->
  probers:int array ->
  exclude_prober:int ->
  one_vote_per_prober:bool ->
  links:int array ->
  drop_time:float ->
  selection
(** The votes a judge counts for a drop at [drop_time] over [links]: each
    link's votes in [drop_time - delta, drop_time + delta] from the
    probers the judge can see ([probers], distinct: itself and its routing
    peers), minus those of [exclude_prober], in the store's insertion order
    (not time order: heavy bursts stamp drop + Delta when their judgment
    runs, which control delay can hold back past later probe rounds). With
    [one_vote_per_prober], each prober keeps only its latest vote on a
    link in that order, at its first-occurrence position: the
    ballot-stuffing defense, under which a prober that floods duplicate
    reports into a window collapses back to a single voice. Costs the
    window's rounds of those probers times the links.
    @raise Invalid_argument if the window starts behind the store's pruned
    horizon ({!Observation.window}). *)

val bad_confidence : config -> up:('v -> bool) -> 'v list array -> float
(** Equation 3 over per-link vote groups, [up] reading a vote's polarity:
    the fuzzy OR (max) across groups of {!link_bad_confidence}. Empty
    groups are skipped; if every group is empty the confidence is 0
    (nothing suggests the network failed, so the forwarder absorbs the
    blame). *)

val blame_of_groups : config -> up:('v -> bool) -> 'v list array -> float
(** Equation 2: 1 - {!bad_confidence}. *)

type verdict = Guilty | Innocent

val verdict_of_blame : config -> float -> verdict

val pp_verdict : Format.formatter -> verdict -> unit
