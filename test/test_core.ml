module Blame = Concilium_core.Blame
module Verdict_window = Concilium_core.Verdict_window
module Accusation_model = Concilium_core.Accusation_model
module Commitment = Concilium_core.Commitment
module Accusation = Concilium_core.Accusation
module Dht = Concilium_core.Dht
module Stewardship = Concilium_core.Stewardship
module Bandwidth = Concilium_core.Bandwidth
module Validation = Concilium_core.Validation
module World = Concilium_core.World
module Observation = Concilium_tomography.Observation
module Tree = Concilium_tomography.Tree
module Graph = Concilium_topology.Graph
module Snapshot = Concilium_tomography.Snapshot
module Id = Concilium_overlay.Id
module Leaf_set = Concilium_overlay.Leaf_set
module Pastry = Concilium_overlay.Pastry
module Freshness = Concilium_overlay.Freshness
module Pki = Concilium_crypto.Pki
module Signed = Concilium_crypto.Signed
module Prng = Concilium_util.Prng

let check = Alcotest.check
let checkf tolerance = Alcotest.check (Alcotest.float tolerance)
let qtest = QCheck_alcotest.to_alcotest

(* ---------- Blame ---------- *)

let test_blame_paper_worked_example () =
  (* Section 3.4: Q and R probe a link down, S probes it up, a = 0.8:
     confidence the link was bad = (0.8 + 0.8 + 0.2)/3 = 0.6. *)
  checkf 1e-9 "worked example" 0.6
    (Blame.link_bad_confidence ~accuracy:0.8 ~up_votes:1 ~down_votes:2)

let test_blame_no_votes () =
  checkf 1e-9 "no votes -> no network evidence" 0.
    (Blame.link_bad_confidence ~accuracy:0.9 ~up_votes:0 ~down_votes:0)

let blame_config = Blame.paper_config

(* Ten probers whose trees are a bare root: each report is a round whose
   one vote is a forged report, so any link can carry it. *)
let bare_tree = Tree.of_paths ~root:0 ~paths:[||]
let all_probers = Array.init 10 Fun.id

let store_with observations =
  let store = Observation.create (Array.make (Array.length all_probers) bare_tree) in
  let verdicts = Bytes.make 1 Observation.no_vote in
  List.iter
    (fun (time, prober, link, up) ->
      Observation.record store ~prober ~time ~verdicts ~forged:[ (link, up) ])
    observations;
  store

let select ?(probers = all_probers) ?(one_vote_per_prober = false) ~exclude_prober ~links
    ~drop_time store =
  Blame.select blame_config store ~probers ~exclude_prober ~one_vote_per_prober ~links ~drop_time

let counted_up obs = obs.Observation.up

let selection_blame selection =
  Blame.blame_of_groups blame_config ~up:counted_up selection.Blame.counted

let test_blame_excludes_judged_node () =
  (* Only the suspect (prober 7) claims the link was down; its vote must be
     ignored, leaving an all-up view and full blame. *)
  let store = store_with [ (100., 7, 1, false); (100., 3, 1, true); (101., 4, 1, true) ] in
  let blame =
    selection_blame (select store ~links:[| 1 |] ~drop_time:100. ~exclude_prober:7)
  in
  checkf 1e-9 "self-exculpation ignored" 0.9 blame

let test_blame_window_filtering () =
  let store = store_with [ (10., 1, 2, false); (500., 2, 2, false) ] in
  (* At drop time 500 only the second observation is in [440, 560]. *)
  let blame =
    selection_blame (select store ~links:[| 2 |] ~drop_time:500. ~exclude_prober:(-1))
  in
  checkf 1e-9 "one down vote" (1. -. 0.9) blame

let test_blame_fuzzy_or_takes_worst_link () =
  let store =
    store_with [ (100., 1, 0, true); (100., 2, 1, false); (100., 3, 2, true) ]
  in
  let confidence =
    Blame.bad_confidence blame_config ~up:counted_up
      (select store ~links:[| 0; 1; 2 |] ~drop_time:100. ~exclude_prober:(-1)).Blame.counted
  in
  checkf 1e-9 "max over links" 0.9 confidence

let test_blame_visibility_filter () =
  let store = store_with [ (100., 5, 1, false) ] in
  let blame =
    selection_blame
      (select store ~links:[| 1 |] ~drop_time:100. ~exclude_prober:(-1)
         ~probers:(Array.of_list (List.filter (( <> ) 5) (Array.to_list all_probers))))
  in
  checkf 1e-9 "invisible prober ignored" 1. blame

let test_blame_one_vote_per_prober () =
  (* Prober 3 reports the link down, prober 4 up, then prober 3 re-reports
     it up: 3's later vote replaces its earlier one at the earlier
     position, so both counted votes are "up". *)
  let store = store_with [ (90., 3, 1, false); (95., 4, 1, true); (100., 3, 1, true) ] in
  let selection =
    select store ~links:[| 1 |] ~drop_time:100. ~exclude_prober:(-1) ~one_vote_per_prober:true
  in
  check
    Alcotest.(list (triple int (float 0.) bool))
    "latest vote at first position"
    [ (3, 100., true); (4, 95., true) ]
    (List.map
       (fun obs -> (obs.Observation.prober, obs.Observation.time, obs.Observation.up))
       selection.Blame.counted.(0));
  check Alcotest.int "one vote collapsed" 1 selection.Blame.deduped;
  checkf 1e-9 "two up votes" 0.9 (selection_blame selection);
  checkf 1e-9 "without dedup the stale down vote counts" (1. -. (1.1 /. 3.))
    (selection_blame (select store ~links:[| 1 |] ~drop_time:100. ~exclude_prober:(-1)))

let test_verdict_threshold () =
  check Alcotest.bool "guilty" true
    (Blame.verdict_of_blame blame_config 0.41 = Blame.Guilty);
  check Alcotest.bool "innocent" true
    (Blame.verdict_of_blame blame_config 0.39 = Blame.Innocent)

let prop_blame_in_unit_interval =
  QCheck.Test.make ~name:"blame always lies in [0,1]" ~count:200
    QCheck.(small_list (triple (int_bound 5) (int_bound 3) bool))
    (fun raw ->
      let store =
        store_with (List.map (fun (prober, link, up) -> (100., prober, link, up)) raw)
      in
      let blame =
        selection_blame (select store ~links:[| 0; 1; 2; 3 |] ~drop_time:100. ~exclude_prober:0)
      in
      blame >= 0. && blame <= 1.)

(* Random windows around a drop at t = 100: six probers, five stored links
   (a sixth path link has no votes), times that include drop +/- Delta
   exactly and the nearest floats outside it, and a prefix of the reports
   recorded twice (identical re-reports). The judge (prober 0) sees its
   forest plus itself; the suspect is any prober, the judge included. *)
let arbitrary_window =
  let delta = blame_config.Blame.delta in
  let times =
    [| 100. -. delta; 100. +. delta; Float.pred (100. -. delta); Float.succ (100. +. delta);
       100.; 45.; 155.; 10.; 190. |]
  in
  let observation =
    QCheck.Gen.(
      map
        (fun (prober, link, time, up) -> (times.(time), prober, link, up))
        (quad (int_bound 5) (int_bound 4) (int_bound (Array.length times - 1)) bool))
  in
  let gen =
    QCheck.Gen.(
      map
        (fun ((reports, repeated), (forest, suspect, links)) ->
          let rec prefix n = function
            | x :: rest when n > 0 -> x :: prefix (n - 1) rest
            | _ -> []
          in
          (reports @ prefix repeated reports, forest, suspect, Array.of_list links))
        (pair
           (pair (list_size (int_bound 30) observation) (int_bound 6))
           (triple (list_repeat 6 bool) (int_bound 5) (list_size (int_range 1 6) (int_bound 5)))))
  in
  let print (reports, forest, suspect, links) =
    Printf.sprintf "reports=[%s] forest=[%s] suspect=%d links=[%s]"
      (String.concat "; "
         (List.map
            (fun (time, prober, link, up) -> Printf.sprintf "(%h,%d,%d,%b)" time prober link up)
            reports))
      (String.concat ";" (List.map string_of_bool forest))
      suspect
      (String.concat ";" (Array.to_list (Array.map string_of_int links)))
  in
  QCheck.make ~print gen

(* The list store fed the same reports, in the same order. *)
let oracle_with observations =
  let oracle = Observation_oracle.create () in
  List.iter
    (fun (time, prober, link, up) ->
      Observation_oracle.record oracle { Observation.time; prober; link; up })
    observations;
  oracle

let prop_select_matches_oracles =
  QCheck.Test.make ~name:"one selection counts what both oracle selections counted" ~count:500
    arbitrary_window (fun (reports, forest, suspect, links) ->
      let store = store_with reports and oracle = oracle_with reports in
      let visible prober = prober = 0 || List.nth forest prober in
      let probers = Array.of_list (List.filter visible (List.init 6 Fun.id)) in
      let drop_time = 100. in
      let bits = Int64.bits_of_float in
      List.for_all
        (fun (exclude_suspect_probes, one_vote_per_prober) ->
          let exclude_prober = if exclude_suspect_probes then suspect else -1 in
          let selection =
            select store ~probers ~one_vote_per_prober ~exclude_prober ~links ~drop_time
          in
          let evidence =
            Blame_oracle.gather_evidence blame_config ~observations:oracle ~visible ~suspect
              ~exclude_suspect_probes ~one_vote_per_prober ~links ~drop_time
          in
          let counted =
            List.filter_map
              (function [] -> None | obs :: _ as votes -> Some (obs.Observation.link, votes))
              (Array.to_list selection.Blame.counted)
          in
          let oracle_confidence =
            Blame_oracle.path_bad_confidence blame_config ~observations:oracle ~links ~drop_time
              ~exclude_prober ~visible ~one_vote_per_prober ()
          in
          let oracle_blame =
            Blame_oracle.blame blame_config ~observations:oracle ~links ~drop_time
              ~exclude_prober ~visible ~one_vote_per_prober ()
          in
          counted = evidence.Blame_oracle.link_votes
          && selection.Blame.excluded = evidence.Blame_oracle.excluded
          && selection.Blame.deduped = evidence.Blame_oracle.deduped
          && bits (Blame.bad_confidence blame_config ~up:counted_up selection.Blame.counted)
             = bits oracle_confidence
          && bits (selection_blame selection) = bits oracle_blame)
        [ (true, true); (true, false); (false, true); (false, false) ])

(* ---------- Verdict window ---------- *)

let test_verdict_window_counting () =
  (* The same verdicts in a window escalating at m = 2 and one at m = 3. *)
  let w = Verdict_window.create ~window_size:3 ~m:2 in
  let w3 = Verdict_window.create ~window_size:3 ~m:3 in
  let record verdict =
    List.iter
      (fun w -> ignore (Verdict_window.record w verdict ~drop_time:0. Fun.id : unit option))
      [ w; w3 ]
  in
  record Blame.Guilty;
  record Blame.Innocent;
  record Blame.Guilty;
  check Alcotest.int "guilty count" 2 (Verdict_window.guilty_count w);
  check Alcotest.bool "accuse at m=2" true (Verdict_window.should_accuse w);
  check Alcotest.bool "not at m=3" false (Verdict_window.should_accuse w3);
  (* Sliding: a fourth verdict evicts the first guilty one. *)
  record Blame.Innocent;
  check Alcotest.int "slid" 1 (Verdict_window.guilty_count w);
  check Alcotest.int "length capped" 3 (Verdict_window.length w)

(* Reference model for the window: a plain list of (verdict, drop_time),
   oldest first, truncated to the last [window_size] on push. The real
   structure must agree after any sequence of pushes, for each m. *)
let prop_verdict_window_matches_list_model =
  QCheck.Test.make ~name:"window matches naive list model under pushes" ~count:300
    QCheck.(pair (int_range 1 8) (small_list (pair bool (int_bound 50))))
    (fun (window_size, pushes) ->
      let windows = List.map (fun m -> (m, Verdict_window.create ~window_size ~m)) [ 1; 2; 3 ] in
      let model = ref [] in
      List.iter
        (fun (guilty, t) ->
          let time = float_of_int t in
          let verdict = if guilty then Blame.Guilty else Blame.Innocent in
          List.iter
            (fun (_, w) ->
              ignore (Verdict_window.record w verdict ~drop_time:time Fun.id : unit option))
            windows;
          model := !model @ [ (verdict, time) ];
          let excess = List.length !model - window_size in
          if excess > 0 then model := List.filteri (fun i _ -> i >= excess) !model)
        pushes;
      let model_guilty =
        List.length (List.filter (fun (v, _) -> v = Blame.Guilty) !model)
      in
      List.for_all
        (fun (m, w) ->
          Verdict_window.entries w = !model
          && Verdict_window.length w = List.length !model
          && Verdict_window.guilty_count w = model_guilty
          && Verdict_window.should_accuse w = (model_guilty >= m))
        windows)

(* The evidence a window keeps, against the list of every verdict ever
   recorded: after each record, the supporting evidence is the newest
   m - 1 guilty pieces before the newest guilty verdict (oldest first), no
   innocent verdict's evidence is ever returned, and at most m pieces are
   held. Each verdict's evidence is its position in the sequence. *)
let prop_verdict_window_keeps_newest_guilty_evidence =
  QCheck.Test.make ~name:"window keeps the newest m guilty verdicts' evidence" ~count:300
    QCheck.(triple (int_range 1 8) (int_range 1 8) (small_list bool))
    (fun (window_size, m, verdicts) ->
      let w = Verdict_window.create ~window_size ~m in
      let guilty_so_far = ref [] (* newest first *) in
      List.for_all
        (fun (position, guilty) ->
          ignore
            (Verdict_window.record w
               (if guilty then Blame.Guilty else Blame.Innocent)
               ~drop_time:(float_of_int position)
               (fun () -> position)
              : int option);
          if guilty then guilty_so_far := position :: !guilty_so_far;
          let expected =
            match !guilty_so_far with
            | [] -> []
            | _newest :: before -> List.rev (List.filteri (fun i _ -> i < m - 1) before)
          in
          let supporting = Verdict_window.supporting w in
          supporting = expected
          && List.for_all (fun p -> List.mem p !guilty_so_far) supporting
          && Verdict_window.evidence_held w <= m)
        (List.mapi (fun position guilty -> (position, guilty)) verdicts))

(* Evidence is built only for what the window archives: over any sequence
   of verdicts, an innocent verdict never calls its builder, a guilty one
   calls it exactly once, when it is recorded, and [record] returns what
   was built. Reading the supporting evidence after each record builds
   nothing more. Each verdict's evidence is its position in the
   sequence. *)
let prop_verdict_window_builds_guilty_evidence_once =
  QCheck.Test.make ~name:"window builds evidence once, for guilty verdicts only" ~count:300
    QCheck.(triple (int_range 1 8) (int_range 1 8) (small_list bool))
    (fun (window_size, m, verdicts) ->
      let w = Verdict_window.create ~window_size ~m in
      let builds = Array.make (List.length verdicts) 0 in
      List.for_all
        (fun (position, guilty) ->
          let returned =
            Verdict_window.record w
              (if guilty then Blame.Guilty else Blame.Innocent)
              ~drop_time:(float_of_int position)
              (fun () ->
                builds.(position) <- builds.(position) + 1;
                position)
          in
          ignore (Verdict_window.supporting w : int list);
          builds.(position) = (if guilty then 1 else 0)
          && returned = (if guilty then Some position else None))
        (List.mapi (fun position guilty -> (position, guilty)) verdicts)
      && List.for_all2
           (fun built guilty -> built = Bool.to_int guilty)
           (Array.to_list builds) verdicts)

(* ---------- Accusation model ---------- *)

let test_accusation_model_paper_values () =
  (* Paper Section 4.3: honest probing (p_good=0.018, p_faulty=0.938), w=100
     -> m=6 drives both error rates below 1%. With 20% collusion
     (0.084/0.713) -> m=16. *)
  check (Alcotest.option Alcotest.int) "honest m" (Some 6)
    (Accusation_model.smallest_m_below ~w:100 ~p_good:0.018 ~p_faulty:0.938 ~target:0.01);
  check (Alcotest.option Alcotest.int) "collusion m" (Some 16)
    (Accusation_model.smallest_m_below ~w:100 ~p_good:0.084 ~p_faulty:0.713 ~target:0.01)

let test_accusation_model_monotonicity () =
  let fp m = Accusation_model.false_positive ~w:50 ~m ~p_good:0.1 in
  let fn m = Accusation_model.false_negative ~w:50 ~m ~p_faulty:0.7 in
  check Alcotest.bool "fp decreasing in m" true (fp 5 >= fp 10 && fp 10 >= fp 20);
  check Alcotest.bool "fn increasing in m" true (fn 5 <= fn 10 && fn 10 <= fn 20)

let prop_accusation_model_complementary =
  QCheck.Test.make ~name:"Pr(W>=m) + Pr(W<m) = 1" ~count:100
    QCheck.(triple (int_range 1 60) (int_range 1 60) (float_bound_inclusive 1.))
    (fun (w, m, p) ->
      QCheck.assume (m <= w);
      let total =
        Accusation_model.false_positive ~w ~m ~p_good:p
        +. Accusation_model.false_negative ~w ~m ~p_faulty:p
      in
      abs_float (total -. 1.) < 1e-9)

(* ---------- Commitment & Accusation ---------- *)

type principal = { id : Id.t; key : Pki.public_key; secret : Pki.secret_key }

let principal pki seed name =
  let id = Id.random (Prng.of_seed seed) in
  let cert, secret = Pki.issue pki ~address:name ~node_id:(Id.to_hex id) in
  { id; key = cert.Pki.subject_key; secret }

let accusation_fixture () =
  let pki = Pki.create ~seed:90L in
  let alice = principal pki 91L "alice" in
  let bob = principal pki 92L "bob" in
  let carol = principal pki 93L "carol" in
  let zed = principal pki 94L "zed" in
  let commitment =
    Commitment.issue ~forwarder:bob.id ~secret:bob.secret ~public:bob.key ~sender:alice.id
      ~destination:zed.id ~message_id:"m1" ~now:99.
  in
  (* Two probers vouch the path links were up: the network is clean, so the
     blame for the drop lands on Bob. *)
  let vote link prober =
    Accusation.make_vote ~prober:prober.id ~secret:prober.secret ~public:prober.key ~link
      ~time:100. ~up:true
  in
  let evidence =
    {
      Accusation.path_links = [| 4; 9 |];
      link_votes =
        [
          { Accusation.link = 4; votes = [ vote 4 carol; vote 4 zed ] };
          { Accusation.link = 9; votes = [ vote 9 carol ] };
        ];
      drop_time = 100.;
      commitment;
    }
  in
  (pki, alice, bob, evidence)

(* [count] more guilty drops of distinct messages that Bob committed to
   carry, ten seconds apart after the fixture's: the supporting evidence
   of an accusation (m - 1 pieces by default). *)
let supporting_drops ?(count = Accusation.m - 1) bob evidence =
  List.init count (fun i ->
      let drop_time = 110. +. (10. *. float_of_int i) in
      let sender = (Signed.payload evidence.Accusation.commitment).Commitment.sender in
      {
        evidence with
        Accusation.drop_time;
        commitment =
          Commitment.issue ~forwarder:bob.id ~secret:bob.secret ~public:bob.key ~sender
            ~destination:sender
            ~message_id:(Printf.sprintf "m%d" (i + 2))
            ~now:(drop_time -. 1.);
      })

let test_commitment_verify_and_covers () =
  let pki, alice, bob, evidence = accusation_fixture () in
  let commitment = evidence.Accusation.commitment in
  check Alcotest.bool "verifies" true (Commitment.verify pki commitment);
  check Alcotest.bool "covers" true
    (Commitment.covers commitment ~forwarder:bob.id ~sender:alice.id
       ~destination:(Signed.payload commitment).Commitment.destination ~message_id:"m1");
  check Alcotest.bool "wrong message id" false
    (Commitment.covers commitment ~forwarder:bob.id ~sender:alice.id
       ~destination:(Signed.payload commitment).Commitment.destination ~message_id:"m2")

let test_accusation_roundtrip () =
  let pki, alice, bob, evidence = accusation_fixture () in
  let accusation =
    Accusation.make ~accuser:alice.id ~secret:alice.secret ~public:alice.key ~accused:bob.id
      ~config:Blame.paper_config ~evidence ~supporting:(supporting_drops bob evidence) ~now:101.
  in
  (* All votes say "up": blame = 1 - (1 - a) = 0.9. *)
  checkf 1e-9 "blame" 0.9 (Signed.payload accusation).Accusation.blame;
  check Alcotest.bool "third-party verification" true
    (Accusation.verify pki accusation = Ok ())

let test_accusation_rejects_tampered_blame () =
  let pki, alice, bob, evidence = accusation_fixture () in
  let accusation =
    Accusation.make ~accuser:alice.id ~secret:alice.secret ~public:alice.key ~accused:bob.id
      ~config:Blame.paper_config ~evidence ~supporting:[] ~now:101.
  in
  let body = Signed.payload accusation in
  (* Inflate the claimed blame but forge the signature: caught at step 1. *)
  let forged =
    Signed.forge ~signer:(Signed.signer accusation)
      ~fake_signature:(Pki.signature_of_string "xx")
      { body with Accusation.blame = 1.0 }
  in
  check Alcotest.bool "bad signature" true
    (Accusation.verify pki forged = Error Accusation.Bad_signature)

let test_accusation_requires_matching_commitment () =
  let pki, alice, bob, evidence = accusation_fixture () in
  ignore bob;
  let mallory = principal pki 95L "mallory" in
  (* Mallory reuses Bob's commitment to accuse... herself as the accuser is
     fine, but naming a different accused must fail the commitment check. *)
  let accusation =
    Accusation.make ~accuser:alice.id ~secret:alice.secret ~public:alice.key
      ~accused:mallory.id ~config:Blame.paper_config ~evidence ~supporting:[] ~now:101.
  in
  check Alcotest.bool "commitment mismatch" true
    (Accusation.verify pki accusation = Error Accusation.Commitment_mismatch)

let test_accusation_rejects_unsupported_evidence () =
  let _, alice, bob, evidence = accusation_fixture () in
  (* Erase the votes: blame over no evidence is 1.0 -- wait, no votes means
     no network evidence, i.e. full blame. Instead flip the votes to all
     "down": blame 0.1 < threshold, so making the accusation must fail. *)
  let flipped =
    {
      evidence with
      Accusation.link_votes =
        List.map
          (fun le ->
            {
              le with
              Accusation.votes =
                List.map (fun v -> { v with Accusation.up = false }) le.Accusation.votes;
            })
          evidence.Accusation.link_votes;
    }
  in
  Alcotest.check_raises "below threshold"
    (Invalid_argument "Accusation.make: evidence does not support a guilty verdict") (fun () ->
      ignore
        (Accusation.make ~accuser:alice.id ~secret:alice.secret ~public:alice.key
           ~accused:bob.id ~config:Blame.paper_config ~evidence:flipped ~supporting:[] ~now:101.))

let test_accusation_rejects_tampered_votes () =
  let pki, alice, bob, evidence = accusation_fixture () in
  let accusation =
    Accusation.make ~accuser:alice.id ~secret:alice.secret ~public:alice.key ~accused:bob.id
      ~config:Blame.paper_config ~evidence ~supporting:[] ~now:101.
  in
  let body = Signed.payload accusation in
  (* Flip a vote inside otherwise-valid evidence and re-sign the accusation
     honestly: the vote's own signature no longer matches. *)
  let tampered_evidence =
    {
      body.Accusation.evidence with
      Accusation.link_votes =
        List.map
          (fun le ->
            {
              le with
              Accusation.votes =
                List.map (fun v -> { v with Accusation.up = false }) le.Accusation.votes;
            })
          body.Accusation.evidence.Accusation.link_votes;
    }
  in
  let reissued =
    Signed.make ~serialize:Accusation.pieces ~signer:alice.key ~secret:alice.secret
      { body with Accusation.evidence = tampered_evidence; blame = 0.9 }
  in
  check Alcotest.bool "vote signatures catch tampering" true
    (Accusation.verify pki reissued = Error Accusation.Bad_vote_signature)

(* Random evidence shapes (empty and repeated links, votes by several
   probers at awkward times, any commitment) signed through archived
   evidence: the cached serializations must produce exactly the bytes the
   field serializer does, on the call that fills the cache and on a later
   one that reuses it, so a verifier re-serializing from the fields accepts
   the signature. A zero guilt threshold makes every shape accusable. *)
let prop_archived_evidence_signs_field_bytes =
  QCheck.Test.make ~name:"archived evidence signs the field serializer's bytes" ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let pki, alice, bob, _ = accusation_fixture () in
      let probers = [| alice; bob; principal pki 97L "carol"; principal pki 98L "dave" |] in
      let rng = Prng.of_seed (Int64.of_int seed) in
      let awkward_time () =
        match Prng.int rng 4 with
        | 0 -> float_of_int (Prng.int rng 10_000)
        | 1 -> Prng.float rng 1e-5
        | 2 -> -.Prng.float rng 1e4
        | _ -> Prng.float rng 1e7
      in
      let random_evidence () =
        let link_votes =
          List.init (Prng.int rng 4) (fun _ ->
              let link = Prng.int rng 6 in
              {
                Accusation.link;
                votes =
                  List.init (Prng.int rng 4) (fun _ ->
                      let prober = probers.(Prng.int rng (Array.length probers)) in
                      Accusation.make_vote ~prober:prober.id ~secret:prober.secret
                        ~public:prober.key ~link ~time:(awkward_time ()) ~up:(Prng.bool rng));
              })
        in
        {
          Accusation.path_links = Array.init (Prng.int rng 5) (fun _ -> Prng.int rng 6);
          link_votes;
          drop_time = awkward_time ();
          commitment =
            Commitment.issue ~forwarder:bob.id ~secret:bob.secret ~public:bob.key ~sender:alice.id
              ~destination:alice.id
              ~message_id:(string_of_int (Prng.int rng 1000))
              ~now:(awkward_time ());
        }
      in
      let evidence = Accusation.archive (random_evidence ()) in
      let supporting = List.init (Prng.int rng 4) (fun _ -> Accusation.archive (random_evidence ())) in
      let config = { Blame.paper_config with Blame.guilt_threshold = 0. } in
      let now = awkward_time () in
      let sign () =
        Accusation.make_archived ~accuser:alice.id ~secret:alice.secret ~public:alice.key
          ~accused:bob.id ~config ~evidence ~supporting ~now
      in
      List.for_all
        (fun accusation ->
          let from_fields =
            Signed.make ~serialize:Accusation.pieces ~signer:alice.key
              ~secret:alice.secret (Signed.payload accusation)
          in
          Pki.signature_to_string accusation.Signed.signature
          = Pki.signature_to_string from_fields.Signed.signature
          && Signed.check ~serialize:Accusation.pieces pki accusation)
        [ sign (); sign () ])

(* ---------- DHT ---------- *)

let dht_fixture () =
  let rng = Prng.of_seed 96L in
  let ids = Array.init 64 (fun _ -> Id.random rng) in
  let pastry = Pastry.build ~leaf_half_size:4 ids in
  Dht.create ~pastry ~replication:3

let test_dht_put_get () =
  let dht = dht_fixture () in
  let pki, alice, bob, evidence = accusation_fixture () in
  ignore pki;
  let accusation =
    Accusation.make ~accuser:alice.id ~secret:alice.secret ~public:alice.key ~accused:bob.id
      ~config:Blame.paper_config ~evidence ~supporting:[] ~now:101.
  in
  let accused_key = Pki.public_key_of_string "bobs-public-key" in
  let hops = ref 0 in
  let put_report = Dht.put dht ~from:0 ~accused_key accusation ~hops in
  check Alcotest.int "replicated" 3 (Dht.total_records dht);
  check Alcotest.int "report counts replicas" 3 put_report.Dht.replicas_written;
  check Alcotest.bool "no failover with everyone alive" false put_report.Dht.put_failed_over;
  (* Idempotent: same record again. *)
  let (_ : Dht.put_report) = Dht.put dht ~from:5 ~accused_key accusation ~hops in
  check Alcotest.int "idempotent" 3 (Dht.total_records dht);
  let fetched = Dht.get dht ~from:9 ~accused_key ~hops () in
  check Alcotest.int "fetched" 1 (List.length fetched.Dht.accusations);
  check Alcotest.bool "read saw no failover" false fetched.Dht.get_failed_over;
  check Alcotest.bool "hops consumed" true (!hops >= 0);
  let other = Dht.get dht ~from:9 ~accused_key:(Pki.public_key_of_string "nobody") ~hops () in
  check Alcotest.int "other key empty" 0 (List.length other.Dht.accusations)

let test_dht_replicas_distinct () =
  let dht = dht_fixture () in
  let key = Id.random (Prng.of_seed 97L) in
  let replicas = Dht.replica_nodes dht ~key in
  check Alcotest.int "replication factor" 3 (List.length replicas);
  check Alcotest.int "distinct" 3 (List.length (List.sort_uniq Int.compare replicas))

(* Alice's accusation of Bob over the fixture's evidence, dropped at
   [drop_time]. *)
let accusation_at drop_time =
  let _, alice, bob, evidence = accusation_fixture () in
  Accusation.make ~accuser:alice.id ~secret:alice.secret ~public:alice.key ~accused:bob.id
    ~config:Blame.paper_config
    ~evidence:{ evidence with Accusation.drop_time }
    ~supporting:[] ~now:(drop_time +. 1.)

let primary_drop_times (report : Dht.get_report) =
  List.map
    (fun a -> (Signed.payload a).Accusation.evidence.Accusation.drop_time)
    report.Dht.accusations

let drop_times_testable = Alcotest.(list (float 0.))

let test_dht_newer_replaces_older () =
  let dht = dht_fixture () in
  let accused_key = Pki.public_key_of_string "bobs-public-key" in
  let hops = ref 0 in
  ignore (Dht.put dht ~from:0 ~accused_key (accusation_at 100.) ~hops : Dht.put_report);
  ignore (Dht.put dht ~from:3 ~accused_key (accusation_at 200.) ~hops : Dht.put_report);
  check Alcotest.int "one record per replica" 3 (Dht.total_records dht);
  check drop_times_testable "the newer accusation" [ 200. ]
    (primary_drop_times (Dht.get dht ~from:9 ~accused_key ~hops ()))

let test_dht_older_put_ignored () =
  let dht = dht_fixture () in
  let accused_key = Pki.public_key_of_string "bobs-public-key" in
  let hops = ref 0 in
  ignore (Dht.put dht ~from:0 ~accused_key (accusation_at 200.) ~hops : Dht.put_report);
  (* A control-delayed filing of an earlier drop arrives late. *)
  ignore (Dht.put dht ~from:3 ~accused_key (accusation_at 100.) ~hops : Dht.put_report);
  check Alcotest.int "one record per replica" 3 (Dht.total_records dht);
  check drop_times_testable "the newer accusation stays" [ 200. ]
    (primary_drop_times (Dht.get dht ~from:9 ~accused_key ~hops ()))

let test_dht_copies_idempotent () =
  let dht = dht_fixture () in
  let accused_key = Pki.public_key_of_string "bobs-public-key" in
  let hops = ref 0 in
  let accusation = accusation_at 100. in
  ignore (Dht.put dht ~from:0 ~copies:3 ~accused_key accusation ~hops : Dht.put_report);
  check Alcotest.int "three copies, one record per replica" 3 (Dht.total_records dht);
  (* An equal drop time leaves the stored record in place. *)
  ignore (Dht.put dht ~from:5 ~copies:2 ~accused_key (accusation_at 100.) ~hops : Dht.put_report);
  check Alcotest.int "duplicates absorbed" 3 (Dht.total_records dht);
  match (Dht.get dht ~from:9 ~accused_key ~hops ()).Dht.accusations with
  | [ stored ] ->
      check Alcotest.string "the first copy stays"
        (Pki.signature_to_string accusation.Signed.signature)
        (Pki.signature_to_string stored.Signed.signature)
  | stored -> Alcotest.failf "expected one accusation, got %d" (List.length stored)

let test_dht_merge_prefers_newer () =
  let dht = dht_fixture () in
  let accused_key = Pki.public_key_of_string "bobs-public-key" in
  let key = Dht.key_of_public_key accused_key in
  let root =
    match Dht.replica_nodes dht ~key with
    | root :: _ -> root
    | [] -> Alcotest.fail "no replicas"
  in
  let hops = ref 0 in
  ignore (Dht.put dht ~from:0 ~accused_key (accusation_at 100.) ~hops : Dht.put_report);
  (* The root is down for the newer filing and keeps the older record. *)
  let alive node = node <> root in
  ignore (Dht.put dht ~from:0 ~alive ~accused_key (accusation_at 200.) ~hops : Dht.put_report);
  check Alcotest.int "the root still holds one record" 1 (Dht.stored_count dht ~node:root);
  check drop_times_testable "back up, the merged read returns the newer" [ 200. ]
    (primary_drop_times (Dht.get dht ~from:9 ~accused_key ~hops ()))

let test_dht_get_reads_only_its_key () =
  (* Five nodes, five replicas: every node stores every key. *)
  let rng = Prng.of_seed 98L in
  let pastry = Pastry.build ~leaf_half_size:4 (Array.init 5 (fun _ -> Id.random rng)) in
  let dht = Dht.create ~pastry ~replication:5 in
  let bob_key = Pki.public_key_of_string "bobs-public-key" in
  let carol_key = Pki.public_key_of_string "carols-public-key" in
  let hops = ref 0 in
  ignore (Dht.put dht ~from:0 ~accused_key:bob_key (accusation_at 100.) ~hops : Dht.put_report);
  ignore (Dht.put dht ~from:0 ~accused_key:carol_key (accusation_at 200.) ~hops : Dht.put_report);
  check Alcotest.int "both keys on every node" 2 (Dht.stored_count dht ~node:0);
  check drop_times_testable "Bob's key" [ 100. ]
    (primary_drop_times (Dht.get dht ~from:1 ~accused_key:bob_key ~hops ()));
  check drop_times_testable "Carol's key" [ 200. ]
    (primary_drop_times (Dht.get dht ~from:1 ~accused_key:carol_key ~hops ()))

(* ---------- Stewardship ---------- *)

(* An episode's judgments by route position: position i judges i + 1. *)
let judgment ?(pushed = true) target = Some { Stewardship.target; pushed }
let resolve judgments = Stewardship.resolve (Array.of_list judgments)

let test_stewardship_full_revision_chain () =
  (* A(0) blames B(1), B blames C(2), C blames D(3); D has nothing to push:
     D is the culprit, B and C exonerated. *)
  let r =
    resolve
      [
        judgment (Stewardship.Next_hop 1);
        judgment (Stewardship.Next_hop 2);
        judgment (Stewardship.Next_hop 3);
      ]
  in
  check Alcotest.bool "final is D" true (r.Stewardship.final = Some (Stewardship.Next_hop 3));
  check (Alcotest.list Alcotest.int) "exonerated" [ 1; 2 ] r.Stewardship.exonerated;
  check Alcotest.int "judgments used" 3 r.Stewardship.judgments_used

let test_stewardship_withheld_verdict_self_incriminates () =
  (* C refuses to push its verdict: blame stops at C. *)
  let r =
    resolve
      [
        judgment (Stewardship.Next_hop 1);
        judgment (Stewardship.Next_hop 2);
        judgment ~pushed:false (Stewardship.Next_hop 3);
      ]
  in
  check Alcotest.bool "final is C" true (r.Stewardship.final = Some (Stewardship.Next_hop 2));
  check (Alcotest.list Alcotest.int) "B exonerated" [ 1 ] r.Stewardship.exonerated

let test_stewardship_network_verdict_terminates () =
  let r = resolve [ judgment (Stewardship.Next_hop 1); judgment Stewardship.Network ] in
  check Alcotest.bool "network blamed" true (r.Stewardship.final = Some Stewardship.Network);
  check (Alcotest.list Alcotest.int) "B exonerated" [ 1 ] r.Stewardship.exonerated

let test_stewardship_no_judgment () =
  List.iter
    (fun judgments ->
      let r = resolve judgments in
      check Alcotest.bool "nothing to diagnose" true (r.Stewardship.final = None);
      check Alcotest.int "no judgment used" 0 r.Stewardship.judgments_used;
      check (Alcotest.option Alcotest.int) "no anchor" None
        (Stewardship.anchor (Array.of_list judgments)))
    [ []; [ None; None ] ]

let test_stewardship_anchors_at_first_judging_position () =
  (* The sender (position 0) crashed or abstained: the walk fails over to
     B's judgment of C, and C's pushed verdict exonerates C. *)
  let judgments =
    [ None; judgment (Stewardship.Next_hop 2); judgment (Stewardship.Next_hop 3) ]
  in
  check (Alcotest.option Alcotest.int) "anchor" (Some 1)
    (Stewardship.anchor (Array.of_list judgments));
  let r = resolve judgments in
  check Alcotest.bool "final is D" true (r.Stewardship.final = Some (Stewardship.Next_hop 3));
  check (Alcotest.list Alcotest.int) "C exonerated" [ 2 ] r.Stewardship.exonerated;
  check Alcotest.int "judgments used" 2 r.Stewardship.judgments_used

let test_stewardship_offline_target_ends_walk () =
  (* B finds C offline: the walk ends there, even though C's position
     holds a pushed judgment, and nobody is blamed. *)
  let r =
    resolve
      [
        judgment (Stewardship.Next_hop 1);
        judgment (Stewardship.Offline 2);
        judgment (Stewardship.Next_hop 3);
      ]
  in
  check Alcotest.bool "final is offline C" true
    (r.Stewardship.final = Some (Stewardship.Offline 2));
  check (Alcotest.list Alcotest.int) "B exonerated" [ 1 ] r.Stewardship.exonerated

(* ---------- Bandwidth ---------- *)

let test_bandwidth_paper_numbers () =
  let overlay_size = Bandwidth.paper_overlay_size in
  let entries = Bandwidth.expected_routing_entries ~overlay_size in
  check Alcotest.bool (Printf.sprintf "entries %.1f ~ 77" entries) true
    (entries > 74. && entries < 80.);
  let state_kib = Bandwidth.advertised_state_bytes ~overlay_size /. 1024. in
  check Alcotest.bool (Printf.sprintf "state %.2f KiB ~ 11.5" state_kib) true
    (state_kib > 10. && state_kib < 12.5);
  let probe_mib = Bandwidth.heavyweight_probe_bytes ~overlay_size /. (1024. *. 1024.) in
  check Alcotest.bool (Printf.sprintf "probing %.2f MiB ~ 16.7" probe_mib) true
    (probe_mib > 15.5 && probe_mib < 18.5);
  checkf 1e-9 "lightweight free" 0. Bandwidth.lightweight_extra_bytes

(* ---------- Validation ---------- *)

let validation_fixture () =
  let rng = Prng.of_seed 98L in
  let pki = Pki.create ~seed:99L in
  let sorted = Array.init 256 (fun _ -> Id.random rng) in
  Array.sort Id.compare sorted;
  let local_leaf = Leaf_set.build ~owner:sorted.(0) ~sorted_ids:sorted ~half_size:8 in
  let peer_id = sorted.(100) in
  let peer_cert, peer_secret = Pki.issue pki ~address:"peer" ~node_id:(Id.to_hex peer_id) in
  let peer_leaf = Leaf_set.build ~owner:peer_id ~sorted_ids:sorted ~half_size:8 in
  let target_id = sorted.(101) in
  let target_cert, target_secret =
    Pki.issue pki ~address:"target" ~node_id:(Id.to_hex target_id)
  in
  let stamp =
    Freshness.issue ~holder:target_id ~secret:target_secret
      ~public:target_cert.Pki.subject_key ~now:95.
  in
  let summary =
    { Snapshot.peer = target_id; loss_level = 0; freshness = stamp }
  in
  let snapshot =
    Snapshot.make ~origin:peer_id ~secret:peer_secret ~public:peer_cert.Pki.subject_key
      ~now:100. ~summaries:[ summary ]
  in
  let local = { Validation.own_jump_occupancy = 40; own_leaf_set = local_leaf } in
  let advertisement =
    { Validation.snapshot; jump_table_occupancy = 38; leaf_set = peer_leaf }
  in
  (pki, local, advertisement)

let test_validation_accepts_honest () =
  let pki, local, advertisement = validation_fixture () in
  check Alcotest.int "no failures" 0
    (List.length (Validation.check pki ~now:100. ~gamma_jump:1.1 ~local advertisement))

let test_validation_flags_sparse_table () =
  let pki, local, advertisement = validation_fixture () in
  let sparse = { advertisement with Validation.jump_table_occupancy = 10 } in
  let failures = Validation.check pki ~now:100. ~gamma_jump:1.1 ~local sparse in
  check Alcotest.bool "sparse table flagged" true
    (List.exists
       (function Validation.Sparse_jump_table _ -> true | _ -> false)
       failures)

let test_validation_flags_stale_stamp () =
  let pki, local, advertisement = validation_fixture () in
  let failures = Validation.check pki ~now:5_000. ~gamma_jump:1.1 ~local advertisement in
  check Alcotest.bool "stale stamp flagged" true
    (List.exists
       (function Validation.Stale_or_invalid_stamp _ -> true | _ -> false)
       failures)

(* ---------- World ---------- *)

let world_fixture = lazy (World.build (World.tiny_config ~seed:123L))

(* The round store against the list store on the tiny world's trees: a
   random run of light rounds (random verdicts on the prober's tree nodes,
   and sometimes forged reports, repeated on one link or on links outside
   the prober's tree), heavy rounds stamped behind rounds already
   recorded, prunes at random horizons and judgments by random judges of
   random suspects over random links and windows. Every selection over the
   rounds must count what the oracle selections count over the list store
   fed the same votes in insertion order, and a window behind the horizon
   must raise. *)
let prop_round_store_answers_as_list_store =
  QCheck.Test.make ~name:"the round store answers as the list store" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let world = Lazy.force world_fixture in
      let rng = Prng.of_seed (Int64.of_int seed) in
      let n = World.node_count world in
      let link_count = Graph.link_count world.World.generated.World.Generate.graph in
      let store = Observation.create world.World.trees and oracle = Observation_oracle.create () in
      let delta = blame_config.Blame.delta in
      let now = ref 0. and horizon = ref Float.neg_infinity in
      let halves bound = float_of_int (Prng.int rng (2 * bound)) /. 2. in
      (* A link of [v]'s tree, or now and then any link at all. *)
      let some_link v =
        let links = Tree.physical_links world.World.trees.(v) in
        if Array.length links = 0 || Prng.int rng 4 = 0 then Prng.int rng link_count
        else links.(Prng.int rng (Array.length links))
      in
      let round ~time v =
        let tree = world.World.trees.(v) in
        let verdicts = Bytes.make (Tree.node_count tree) Observation.no_vote in
        let votes = ref [] in
        for node = 1 to Tree.node_count tree - 1 do
          if Prng.bool rng then begin
            let up = Prng.bool rng in
            Bytes.set verdicts node (if up then Observation.up_vote else Observation.down_vote);
            votes := (Tree.parent_link tree node, up) :: !votes
          end
        done;
        let forged =
          if Prng.int rng 5 > 0 then []
          else begin
            let stuffed = some_link v in
            List.init (1 + Prng.int rng 4) (fun _ ->
                ((if Prng.bool rng then stuffed else some_link v), Prng.bool rng))
          end
        in
        Observation.record store ~prober:v ~time ~verdicts ~forged;
        List.iter
          (fun (link, up) -> Observation_oracle.record oracle { Observation.time; prober = v; link; up })
          (List.rev_append !votes forged)
      in
      let judgment () =
        let judge = Prng.int rng n and suspect = Prng.int rng n in
        let links = Array.init (1 + Prng.int rng 5) (fun _ -> some_link judge) in
        let lo = (if Float.is_finite !horizon then !horizon else !now -. 300.) +. halves 200 in
        let drop_time = lo +. delta in
        let probers = Array.append [| judge |] world.World.sorted_peers.(judge) in
        let visible prober = prober = judge || World.is_peer world judge prober in
        List.for_all
          (fun (exclude_suspect_probes, one_vote_per_prober) ->
            let exclude_prober = if exclude_suspect_probes then suspect else -1 in
            let selection =
              Blame.select blame_config store ~probers ~exclude_prober ~one_vote_per_prober ~links
                ~drop_time
            in
            let evidence =
              Blame_oracle.gather_evidence blame_config ~observations:oracle ~visible ~suspect
                ~exclude_suspect_probes ~one_vote_per_prober ~links ~drop_time
            in
            List.filter_map
              (function [] -> None | obs :: _ as votes -> Some (obs.Observation.link, votes))
              (Array.to_list selection.Blame.counted)
            = evidence.Blame_oracle.link_votes
            && selection.Blame.excluded = evidence.Blame_oracle.excluded
            && selection.Blame.deduped = evidence.Blame_oracle.deduped)
          [ (true, true); (true, false); (false, true); (false, false) ]
        && ((not (Float.is_finite !horizon))
           ||
           match
             Blame.select blame_config store ~probers ~exclude_prober:(-1)
               ~one_vote_per_prober:false ~links ~drop_time:(!horizon -. 1. +. delta)
           with
           | _ -> false
           | exception Invalid_argument _ -> true)
      in
      List.for_all
        (fun _ ->
          match Prng.int rng 20 with
          | 0 | 1 | 2 ->
              now := !now +. halves 30;
              true
          | 3 ->
              (* A heavy burst's round, stamped at drop + Delta behind rounds
                 already recorded. *)
              round ~time:(!now -. halves 120) (Prng.int rng n);
              true
          | 4 ->
              let candidate = !now -. halves 200 in
              if candidate > !horizon then begin
                horizon := candidate;
                Observation.prune_before store candidate;
                Observation_oracle.prune_before oracle candidate
              end;
              Observation.count store >= Observation_oracle.count oracle
          | 5 | 6 -> judgment ()
          | _ ->
              round ~time:!now (Prng.int rng n);
              true)
        (List.init 300 Fun.id))

let test_world_invariants () =
  let world = Lazy.force world_fixture in
  let n = World.node_count world in
  check Alcotest.bool "nontrivial" true (n >= 10);
  for v = 0 to n - 1 do
    (* Every peer path starts at v's router and ends at the peer's router. *)
    Array.iteri
      (fun i path ->
        match path with
        | None -> ()
        | Some path ->
            let peer = world.World.peers.(v).(i) in
            let nodes = path.World.Routes.nodes in
            check Alcotest.int "starts at host" world.World.host_router.(v) nodes.(0);
            check Alcotest.int "ends at peer" world.World.host_router.(peer)
              nodes.(Array.length nodes - 1))
      world.World.peer_paths.(v)
  done

(* World's overlay is the flat core; on whole worlds it must match the
   list-based oracle node for node, and its routing peers are the ones the
   probe trees were built over. *)
let test_world_overlay_matches_oracle () =
  List.iter
    (fun config ->
      let world = World.build config in
      let ids = Array.init (World.node_count world) (World.id_of world) in
      let context = Printf.sprintf "world seed %Ld, %d nodes" config.World.seed (Array.length ids) in
      Pastry_oracle.assert_agrees ~context ~leaf_half:config.World.leaf_half_size
        ~rng:(Prng.of_seed config.World.seed) ~routes:2000 ids world.World.pastry;
      let oracle = Pastry_oracle.build ~leaf_half_size:config.World.leaf_half_size ids in
      Array.iteri
        (fun v peers ->
          if peers <> Pastry_oracle.routing_peers oracle v then
            Alcotest.failf "%s: node %d probes other peers than the oracle's" context v)
        world.World.peers)
    [
      World.tiny_config ~seed:1L;
      World.tiny_config ~seed:2L;
      World.tiny_config ~seed:3L;
      World.small_config ~seed:1L;
      World.small_config ~seed:2L;
    ]

(* World routes with the hierarchical router; every peer path must be the
   whole-graph BFS route. *)
let test_world_peer_paths_match_bfs () =
  List.iter
    (fun config ->
      let world = World.build config in
      let graph = world.World.generated.World.Generate.graph in
      Array.iteri
        (fun v peers ->
          let targets = Array.map (fun peer -> world.World.host_router.(peer)) peers in
          let oracle =
            World.Routes.shortest_paths graph ~source:world.World.host_router.(v) ~targets
          in
          if world.World.peer_paths.(v) <> oracle then
            Alcotest.failf "world seed %Ld: node %d's peer paths differ from BFS"
              config.World.seed v)
        world.World.peers)
    (List.map (fun seed -> World.tiny_config ~seed) [ 1L; 2L; 3L; 4L; 5L ]
    @ List.map (fun seed -> World.small_config ~seed) [ 1L; 2L ])

let test_world_tree_roots () =
  let world = Lazy.force world_fixture in
  for v = 0 to World.node_count world - 1 do
    check Alcotest.int "tree rooted at host" world.World.host_router.(v)
      (World.Tree.root world.World.trees.(v))
  done

let test_world_vouchers_are_tree_members () =
  let world = Lazy.force world_fixture in
  let some_link = (World.Tree.physical_links world.World.trees.(0)).(0) in
  let vouchers = World.vouchers world ~link:some_link in
  check Alcotest.bool "node 0 vouches for its own tree" true (List.mem 0 vouchers);
  List.iter
    (fun v ->
      check Alcotest.bool "voucher's tree covers the link" true
        (Array.exists (( = ) some_link) (World.Tree.physical_links world.World.trees.(v))))
    vouchers

let test_world_certificates_valid () =
  let world = Lazy.force world_fixture in
  Array.iter
    (fun certificate ->
      check Alcotest.bool "CA-signed" true
        (Pki.verify_certificate world.World.pki certificate))
    world.World.certificates

let test_world_forest_includes_own_tree () =
  let world = Lazy.force world_fixture in
  let forest = World.forest_links world 0 in
  Array.iter
    (fun link -> check Alcotest.bool "own tree in forest" true (Array.exists (( = ) link) forest))
    (World.Tree.physical_links world.World.trees.(0))


let test_accusation_supporting_evidence () =
  let pki, alice, bob, evidence = accusation_fixture () in
  (* Earlier drops' archived evidence travels with the accusation. *)
  let supporting = supporting_drops bob evidence in
  let accusation =
    Accusation.make ~accuser:alice.id ~secret:alice.secret ~public:alice.key ~accused:bob.id
      ~config:Blame.paper_config ~evidence ~supporting ~now:230.
  in
  check Alcotest.bool "verifies with supporting evidence" true
    (Accusation.verify pki accusation = Ok ());
  (* Supporting evidence that does not clear the threshold is rejected. *)
  let weaken e =
    {
      e with
      Accusation.link_votes =
        List.map
          (fun le ->
            {
              le with
              Accusation.votes =
                List.map (fun v -> { v with Accusation.up = false }) le.Accusation.votes;
            })
          e.Accusation.link_votes;
    }
  in
  let body = Signed.payload accusation in
  let reissued =
    Signed.make ~serialize:Accusation.pieces ~signer:alice.key ~secret:alice.secret
      { body with Accusation.supporting = List.map weaken supporting }
  in
  check Alcotest.bool "weak supporting evidence rejected" true
    (Accusation.verify pki reissued = Error Accusation.Weak_supporting_evidence)

(* An honestly signed accusation over [supporting]: each rejection below is
   the evidence's, not the signature's. *)
let verify_with_supporting supporting =
  let pki, alice, bob, evidence = accusation_fixture () in
  let accusation =
    Accusation.make ~accuser:alice.id ~secret:alice.secret ~public:alice.key ~accused:bob.id
      ~config:Blame.paper_config ~evidence ~supporting:(supporting pki bob evidence) ~now:230.
  in
  Accusation.verify pki accusation

let test_accusation_rejects_short_supporting () =
  check Alcotest.bool "m - 2 supporting pieces" true
    (verify_with_supporting (fun _ bob evidence ->
         supporting_drops ~count:(Accusation.m - 2) bob evidence)
    = Error Accusation.Wrong_supporting_count);
  check Alcotest.bool "a single guilty verdict" true
    (verify_with_supporting (fun _ _ _ -> []) = Error Accusation.Wrong_supporting_count)

let test_accusation_rejects_repeated_message () =
  (* A supporting piece re-judges the primary drop's message. *)
  check Alcotest.bool "repeated message id" true
    (verify_with_supporting (fun _ bob evidence ->
         match supporting_drops bob evidence with
         | first :: rest ->
             { first with Accusation.commitment = evidence.Accusation.commitment } :: rest
         | [] -> [])
    = Error Accusation.Repeated_message)

let test_accusation_rejects_foreign_supporting () =
  (* Evidence judged against another node pads the accusation: its
     commitment names Mallory, not Bob, as the forwarder. *)
  check Alcotest.bool "supporting commitment names another node" true
    (verify_with_supporting (fun pki bob evidence ->
         let mallory = principal pki 95L "mallory" in
         match supporting_drops bob evidence with
         | first :: rest ->
             {
               first with
               Accusation.commitment =
                 Commitment.issue ~forwarder:mallory.id ~secret:mallory.secret
                   ~public:mallory.key ~sender:bob.id ~destination:bob.id ~message_id:"other"
                   ~now:105.;
             }
             :: rest
         | [] -> [])
    = Error Accusation.Supporting_commitment_mismatch)

let suites =
  [
    ( "core.blame",
      [
        Alcotest.test_case "paper worked example (0.6)" `Quick test_blame_paper_worked_example;
        Alcotest.test_case "no votes" `Quick test_blame_no_votes;
        Alcotest.test_case "judged node excluded" `Quick test_blame_excludes_judged_node;
        Alcotest.test_case "time window" `Quick test_blame_window_filtering;
        Alcotest.test_case "fuzzy OR over links" `Quick test_blame_fuzzy_or_takes_worst_link;
        Alcotest.test_case "visibility filter" `Quick test_blame_visibility_filter;
        Alcotest.test_case "one vote per prober" `Quick test_blame_one_vote_per_prober;
        Alcotest.test_case "verdict threshold" `Quick test_verdict_threshold;
        qtest prop_blame_in_unit_interval;
        qtest prop_select_matches_oracles;
        qtest prop_round_store_answers_as_list_store;
      ] );
    ( "core.verdict_window",
      [
        Alcotest.test_case "sliding window counting" `Quick test_verdict_window_counting;
        qtest prop_verdict_window_matches_list_model;
        qtest prop_verdict_window_keeps_newest_guilty_evidence;
        qtest prop_verdict_window_builds_guilty_evidence_once;
      ] );
    ( "core.accusation_model",
      [
        Alcotest.test_case "paper's m=6 and m=16" `Quick test_accusation_model_paper_values;
        Alcotest.test_case "monotonicity" `Quick test_accusation_model_monotonicity;
        qtest prop_accusation_model_complementary;
      ] );
    ( "core.accusation",
      [
        Alcotest.test_case "commitment verify/covers" `Quick test_commitment_verify_and_covers;
        Alcotest.test_case "make and verify" `Quick test_accusation_roundtrip;
        Alcotest.test_case "tampered blame rejected" `Quick test_accusation_rejects_tampered_blame;
        Alcotest.test_case "commitment must name accused" `Quick
          test_accusation_requires_matching_commitment;
        Alcotest.test_case "unsupported evidence unmakeable" `Quick
          test_accusation_rejects_unsupported_evidence;
        Alcotest.test_case "tampered votes rejected" `Quick test_accusation_rejects_tampered_votes;
        Alcotest.test_case "supporting evidence verified" `Quick
          test_accusation_supporting_evidence;
        Alcotest.test_case "m - 2 supporting pieces rejected" `Quick
          test_accusation_rejects_short_supporting;
        Alcotest.test_case "repeated message rejected" `Quick
          test_accusation_rejects_repeated_message;
        Alcotest.test_case "supporting commitment must name accused" `Quick
          test_accusation_rejects_foreign_supporting;
        qtest prop_archived_evidence_signs_field_bytes;
      ] );
    ( "core.dht",
      [
        Alcotest.test_case "put/get with replication" `Quick test_dht_put_get;
        Alcotest.test_case "distinct replicas" `Quick test_dht_replicas_distinct;
        Alcotest.test_case "newer accusation replaces older" `Quick test_dht_newer_replaces_older;
        Alcotest.test_case "older accusation ignored" `Quick test_dht_older_put_ignored;
        Alcotest.test_case "copies idempotent" `Quick test_dht_copies_idempotent;
        Alcotest.test_case "merge prefers newer" `Quick test_dht_merge_prefers_newer;
        Alcotest.test_case "get reads only its key" `Quick test_dht_get_reads_only_its_key;
      ] );
    ( "core.stewardship",
      [
        Alcotest.test_case "full revision chain" `Quick test_stewardship_full_revision_chain;
        Alcotest.test_case "withheld verdict self-incriminates" `Quick
          test_stewardship_withheld_verdict_self_incriminates;
        Alcotest.test_case "network verdict terminates" `Quick
          test_stewardship_network_verdict_terminates;
        Alcotest.test_case "no judgment" `Quick test_stewardship_no_judgment;
        Alcotest.test_case "anchors at the first judging position" `Quick
          test_stewardship_anchors_at_first_judging_position;
        Alcotest.test_case "an offline target ends the walk" `Quick
          test_stewardship_offline_target_ends_walk;
      ] );
    ( "core.bandwidth",
      [ Alcotest.test_case "Section 4.4 numbers" `Quick test_bandwidth_paper_numbers ] );
    ( "core.validation",
      [
        Alcotest.test_case "accepts honest advertisement" `Quick test_validation_accepts_honest;
        Alcotest.test_case "flags sparse jump table" `Quick test_validation_flags_sparse_table;
        Alcotest.test_case "flags stale stamps" `Quick test_validation_flags_stale_stamp;
      ] );
    ( "core.world",
      [
        Alcotest.test_case "route invariants" `Quick test_world_invariants;
        Alcotest.test_case "tree roots" `Quick test_world_tree_roots;
        Alcotest.test_case "voucher index" `Quick test_world_vouchers_are_tree_members;
        Alcotest.test_case "certificates" `Quick test_world_certificates_valid;
        Alcotest.test_case "forest contains own tree" `Quick test_world_forest_includes_own_tree;
        Alcotest.test_case "overlay matches the list-based oracle" `Quick
          test_world_overlay_matches_oracle;
        Alcotest.test_case "peer paths equal BFS routes" `Quick test_world_peer_paths_match_bfs;
      ] );
  ]
