type t = {
  status : Bytes.t;
  mutable bad_count : int;
  good_loss : float;
  bad_loss : float;
}

let create ~link_count ~good_loss ~bad_loss =
  if link_count < 0 then invalid_arg "Link_state.create: negative link count";
  if good_loss < 0. || good_loss > 1. || bad_loss < 0. || bad_loss > 1. then
    invalid_arg "Link_state.create: loss rates outside [0,1]";
  { status = Bytes.make link_count '\000'; bad_count = 0; good_loss; bad_loss }

let link_count t = Bytes.length t.status
let is_bad t link = Bytes.get t.status link = '\001'

let set_bad t link =
  if not (is_bad t link) then begin
    Bytes.set t.status link '\001';
    t.bad_count <- t.bad_count + 1
  end

let set_good t link =
  if is_bad t link then begin
    Bytes.set t.status link '\000';
    t.bad_count <- t.bad_count - 1
  end

let bad_count t = t.bad_count
let loss_rate t link = if is_bad t link then t.bad_loss else t.good_loss
let good_loss t = t.good_loss
let bad_loss t = t.bad_loss

let path_is_good t links = Array.for_all (fun link -> not (is_bad t link)) links
