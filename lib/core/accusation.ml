module Id = Concilium_overlay.Id
module Signed = Concilium_crypto.Signed
module Pki = Concilium_crypto.Pki

(* The paper's m (Section 4.3): guilty verdicts of one window behind a
   formal accusation, the judged one and m - 1 supporting. *)
let m = 6

type vote = {
  prober : Id.t;
  prober_key : Pki.public_key;
  time : float;
  up : bool;
  vote_signature : Pki.signature;
}

let vote_payload ~link ~prober ~time ~up =
  Printf.sprintf "vote|%d|%s|%.6f|%b" link (Id.to_hex prober) time up

let make_vote ~prober ~secret ~public ~link ~time ~up =
  {
    prober;
    prober_key = public;
    time;
    up;
    vote_signature = Pki.sign secret [ vote_payload ~link ~prober ~time ~up ];
  }

let vote_valid pki ~link vote =
  Pki.verify pki vote.prober_key
    [ vote_payload ~link ~prober:vote.prober ~time:vote.time ~up:vote.up ]
    vote.vote_signature

type link_evidence = { link : int; votes : vote list }

type evidence = {
  path_links : int array;
  link_votes : link_evidence list;
  drop_time : float;
  commitment : Commitment.t;
}

type body = {
  accuser : Id.t;
  accused : Id.t;
  issued_at : float;
  blame : float;
  config : Blame.config;
  evidence : evidence;
  supporting : evidence list;
}

type t = body Signed.t

let serialize_vote v =
  Printf.sprintf "%s,%f,%b,%s" (Id.to_hex v.prober) v.time v.up
    (Pki.signature_to_string v.vote_signature)

let serialize_evidence e =
  let links = String.concat "," (Array.to_list (Array.map string_of_int e.path_links)) in
  let votes =
    String.concat ";"
      (List.map
         (fun le ->
           Printf.sprintf "%d:%s" le.link (String.concat "+" (List.map serialize_vote le.votes)))
         e.link_votes)
  in
  Printf.sprintf "%s|%s|%.6f|%s" links votes e.drop_time
    (Commitment.serialize_body (Signed.payload e.commitment))

(* The body around its already serialized evidence, as the pieces its
   signature hashes: the header, the judged evidence, a '|', then the
   supporting evidence separated by '&'. *)
let pieces_around ~evidence ~supporting b =
  let header =
    Printf.sprintf "accusation|%s|%s|%.6f|%.9f|%f,%f,%f|" (Id.to_hex b.accuser)
      (Id.to_hex b.accused) b.issued_at b.blame b.config.Blame.accuracy b.config.Blame.delta
      b.config.Blame.guilt_threshold
  in
  let rec separated = function
    | [] -> []
    | [ last ] -> [ last ]
    | piece :: rest -> piece :: "&" :: separated rest
  in
  header :: evidence :: "|" :: separated supporting

let pieces b =
  pieces_around b ~evidence:(serialize_evidence b.evidence)
    ~supporting:(List.map serialize_evidence b.supporting)

(* An evidence value with its serialization, computed at most once however
   many accusations carry it. *)
type archived = { archived : evidence; serialized : string Lazy.t }

let archive evidence = { archived = evidence; serialized = lazy (serialize_evidence evidence) }

(* Votes grouped per path link, excluding the accused's own contributions,
   folded through the judge's own Equation 3. *)
let compute_blame ~accused ~config evidence =
  Blame.blame_of_groups config
    ~up:(fun v -> v.up)
    (Array.map
       (fun link ->
         match List.find_opt (fun le -> le.link = link) evidence.link_votes with
         | None -> []
         | Some le -> List.filter (fun v -> not (Id.equal v.prober accused)) le.votes)
       evidence.path_links)

let make_archived ~accuser ~secret ~public ~accused ~config ~evidence ~supporting ~now =
  let blame = compute_blame ~accused ~config evidence.archived in
  if blame < config.Blame.guilt_threshold then
    invalid_arg "Accusation.make: evidence does not support a guilty verdict";
  let serialized a = Lazy.force a.serialized in
  Signed.make
    ~serialize:
      (pieces_around ~evidence:(serialized evidence) ~supporting:(List.map serialized supporting))
    ~signer:public ~secret
    {
      accuser;
      accused;
      issued_at = now;
      blame;
      config;
      evidence = evidence.archived;
      supporting = List.map (fun a -> a.archived) supporting;
    }

let make ~accuser ~secret ~public ~accused ~config ~evidence ~supporting ~now =
  make_archived ~accuser ~secret ~public ~accused ~config ~evidence:(archive evidence)
    ~supporting:(List.map archive supporting) ~now

type rejection =
  | Bad_signature
  | Bad_commitment
  | Commitment_mismatch
  | Bad_vote_signature
  | Blame_mismatch
  | Below_threshold
  | Weak_supporting_evidence
  | Wrong_supporting_count
  | Supporting_commitment_mismatch
  | Repeated_message

let distinct_messages evidence =
  let ids = List.map (fun e -> (Signed.payload e.commitment).Commitment.message_id) evidence in
  List.compare_lengths (List.sort_uniq String.compare ids) ids = 0

let verify pki t =
  let b = Signed.payload t in
  let e = b.evidence in
  if not (Signed.check ~serialize:pieces pki t) then Error Bad_signature
  else if not (Commitment.verify pki e.commitment) then Error Bad_commitment
  else if not (Id.equal (Signed.payload e.commitment).Commitment.forwarder b.accused) then
    Error Commitment_mismatch
  else if
    not
      (List.for_all
         (fun le -> List.for_all (fun v -> vote_valid pki ~link:le.link v) le.votes)
         e.link_votes)
  then Error Bad_vote_signature
  else begin
    let recomputed = compute_blame ~accused:b.accused ~config:b.config e in
    if abs_float (recomputed -. b.blame) > 1e-9 then Error Blame_mismatch
    else if recomputed < b.config.Blame.guilt_threshold then Error Below_threshold
    else begin
      let supporting_ok extra =
        List.for_all
          (fun le -> List.for_all (fun v -> vote_valid pki ~link:le.link v) le.votes)
          extra.link_votes
        && compute_blame ~accused:b.accused ~config:b.config extra
           >= b.config.Blame.guilt_threshold
      in
      let names_accused extra =
        Commitment.verify pki extra.commitment
        && Id.equal (Signed.payload extra.commitment).Commitment.forwarder b.accused
      in
      if not (List.for_all supporting_ok b.supporting) then Error Weak_supporting_evidence
      else if List.compare_length_with b.supporting (m - 1) <> 0 then
        Error Wrong_supporting_count
      else if not (List.for_all names_accused b.supporting) then
        Error Supporting_commitment_mismatch
      else if not (distinct_messages (e :: b.supporting)) then Error Repeated_message
      else Ok ()
    end
  end

let pp_rejection fmt rejection =
  Format.pp_print_string fmt
    (match rejection with
    | Bad_signature -> "bad accusation signature"
    | Bad_commitment -> "invalid forwarding commitment"
    | Commitment_mismatch -> "commitment does not name the accused as forwarder"
    | Bad_vote_signature -> "a probe vote carries an invalid signature"
    | Blame_mismatch -> "recomputed blame disagrees with the claimed value"
    | Below_threshold -> "evidence does not reach the guilt threshold"
    | Weak_supporting_evidence -> "a piece of supporting evidence fails verification"
    | Wrong_supporting_count -> "supporting evidence is not exactly m - 1 pieces"
    | Supporting_commitment_mismatch ->
        "a supporting commitment is invalid or does not name the accused as forwarder"
    | Repeated_message -> "two pieces of evidence judge the same dropped message")
