module Json = Concilium_util.Json

type value = Int of int | Float of float | Bool of bool | String of string

type args = (string * value) list

type span = int

let none : span = 0

(* Span identifiers start at 1 so 0 can mean "no span"; [next_id] is the
   next unassigned identifier, which doubles as the rebase offset source in
   [merge]. *)
type record =
  | Instant of { time : float; name : string; cat : string; span : int; args : args }
  | Open of { time : float; name : string; cat : string; id : int; parent : int; args : args }
  | Close of { time : float; id : int; args : args }

type t = {
  recording : bool;
  mutable records : record list; (* newest first *)
  mutable length : int;
  mutable next_id : int;
  mutable tap : (string -> unit) option;
  line : Buffer.t;  (* renders each streamed record, reused *)
}

let create () =
  { recording = true; records = []; length = 0; next_id = 1; tap = None; line = Buffer.create 128 }

let noop =
  { recording = false; records = []; length = 0; next_id = 1; tap = None; line = Buffer.create 1 }

let enabled t = t.recording

let set_tap t f = if t.recording then t.tap <- Some f

(* ---------- Per-record JSONL rendering ----------

   Shared by the batch [jsonl] export and the streaming tap, so a flight
   recorder's ring holds exactly the lines a full dump would contain. *)

(* Printf's "%.6f" is this primitive on this format, byte for byte; calling
   it directly skips Printf's format interpreter, which allocated most of a
   streamed record's words. *)
external format_float : string -> float -> string = "caml_format_float"

let add_fixed buf f = Buffer.add_string buf (format_float "%.6f" f)

let add_value buf value =
  match value with
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> add_fixed buf f
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | String s -> Json.add_quoted buf s

let add_args buf args =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (key, value) ->
      if i > 0 then Buffer.add_string buf ", ";
      Json.add_quoted buf key;
      Buffer.add_string buf ": ";
      add_value buf value)
    args;
  Buffer.add_char buf '}'

let add_record_line buf record =
  match record with
  | Instant { time; name; cat; span; args } ->
      Buffer.add_string buf {|{"t": |};
      add_fixed buf time;
      Buffer.add_string buf {|, "ph": "instant", "name": |};
      Json.add_quoted buf name;
      Buffer.add_string buf {|, "cat": |};
      Json.add_quoted buf cat;
      if span <> none then begin
        Buffer.add_string buf {|, "span": |};
        Buffer.add_string buf (string_of_int span)
      end;
      if args <> [] then begin
        Buffer.add_string buf {|, "args": |};
        add_args buf args
      end;
      Buffer.add_char buf '}'
  | Open { time; name; cat; id; parent; args } ->
      Buffer.add_string buf {|{"t": |};
      add_fixed buf time;
      Buffer.add_string buf {|, "ph": "open", "id": |};
      Buffer.add_string buf (string_of_int id);
      Buffer.add_string buf {|, "name": |};
      Json.add_quoted buf name;
      Buffer.add_string buf {|, "cat": |};
      Json.add_quoted buf cat;
      if parent <> none then begin
        Buffer.add_string buf {|, "parent": |};
        Buffer.add_string buf (string_of_int parent)
      end;
      if args <> [] then begin
        Buffer.add_string buf {|, "args": |};
        add_args buf args
      end;
      Buffer.add_char buf '}'
  | Close { time; id; args } ->
      Buffer.add_string buf {|{"t": |};
      add_fixed buf time;
      Buffer.add_string buf {|, "ph": "close", "id": |};
      Buffer.add_string buf (string_of_int id);
      if args <> [] then begin
        Buffer.add_string buf {|, "args": |};
        add_args buf args
      end;
      Buffer.add_char buf '}'

let push t record =
  t.records <- record :: t.records;
  t.length <- t.length + 1;
  match t.tap with
  | None -> ()
  | Some f ->
      Buffer.clear t.line;
      add_record_line t.line record;
      f (Buffer.contents t.line)

let instant t ~time ?(cat = "event") ?(span = none) ?(args = []) name =
  if t.recording then push t (Instant { time; name; cat; span; args })

let span_open t ~time ?(cat = "span") ?(parent = none) ?(args = []) name =
  if not t.recording then none
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    push t (Open { time; name; cat; id; parent; args });
    id
  end

let span_close t ~time ?(args = []) span =
  if t.recording && span <> none then push t (Close { time; id = span; args })

let length t = t.length
let records t = List.rev t.records

let merge shards =
  let out = create () in
  Array.iter
    (fun shard ->
      let offset = out.next_id - 1 in
      let rebase id = if id = none then none else id + offset in
      List.iter
        (fun record ->
          push out
            (match record with
            | Instant { time; name; cat; span; args } ->
                Instant { time; name; cat; span = rebase span; args }
            | Open { time; name; cat; id; parent; args } ->
                Open { time; name; cat; id = rebase id; parent = rebase parent; args }
            | Close { time; id; args } -> Close { time; id = rebase id; args }))
        (records shard);
      out.next_id <- out.next_id + (shard.next_id - 1))
    shards;
  out

(* ---------- Well-formedness ---------- *)

type open_state = { parent : int; opened_at : float; open_children : int ref }

let validate t =
  let open_spans = Hashtbl.create 64 in
  let closed = Hashtbl.create 64 in
  let error = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !error = None then error := Some s) fmt in
  List.iter
    (fun record ->
      match record with
      | Instant { span; name; _ } ->
          if span <> none && not (Hashtbl.mem open_spans span) then
            fail "instant %S attached to span %d which is not open" name span
      | Open { id; parent; time; name; _ } ->
          if Hashtbl.mem open_spans id || Hashtbl.mem closed id then
            fail "span %d (%S) opened twice" id name
          else begin
            (if parent <> none then begin
               match Hashtbl.find_opt open_spans parent with
               | Some state -> incr state.open_children
               | None -> fail "span %d (%S) opened under parent %d which is not open" id name parent
             end);
            Hashtbl.replace open_spans id { parent; opened_at = time; open_children = ref 0 }
          end
      | Close { id; time; _ } -> (
          match Hashtbl.find_opt open_spans id with
          | None ->
              if Hashtbl.mem closed id then fail "span %d closed twice" id
              else fail "orphan close of span %d" id
          | Some state ->
              if !(state.open_children) > 0 then
                fail "span %d closed while %d children are still open" id !(state.open_children);
              if time < state.opened_at then
                fail "span %d closes at %.6f before it opened at %.6f" id time state.opened_at;
              Hashtbl.remove open_spans id;
              Hashtbl.replace closed id ();
              if state.parent <> none then begin
                match Hashtbl.find_opt open_spans state.parent with
                | Some parent_state -> decr parent_state.open_children
                | None -> ()
              end))
    (records t);
  if !error = None && Hashtbl.length open_spans > 0 then
    fail "%d spans were never closed" (Hashtbl.length open_spans);
  match !error with None -> Ok () | Some message -> Error message

(* ---------- Queries ---------- *)

let instants t ~name =
  List.filter_map
    (fun record ->
      match record with
      | Instant { time; name = n; args; _ } when String.equal n name -> Some (time, args)
      | Instant _ | Open _ | Close _ -> None)
    (records t)

let completed_spans t =
  let open_spans = Hashtbl.create 64 in
  let spans = ref [] in
  List.iter
    (fun record ->
      match record with
      | Instant _ -> ()
      | Open { id; name; time; _ } -> Hashtbl.replace open_spans id (name, time)
      | Close { id; time; _ } -> (
          match Hashtbl.find_opt open_spans id with
          | Some (name, opened_at) ->
              Hashtbl.remove open_spans id;
              spans := (name, opened_at, time -. opened_at) :: !spans
          | None -> ()))
    (records t);
  List.rev !spans

(* ---------- Export ----------

   A close record carries no category of its own; it inherits its open's,
   so a category filter keeps open/close pairs together. *)
let cat_of_close t =
  let cats = Hashtbl.create 64 in
  List.iter
    (fun record ->
      match record with
      | Open { id; cat; name; _ } -> Hashtbl.replace cats id (cat, name)
      | Instant _ | Close _ -> ())
    (records t);
  fun id -> Hashtbl.find_opt cats id

let jsonl ?(filter = fun _ -> true) t =
  let buf = Buffer.create 4096 in
  let close_info = cat_of_close t in
  let keep record =
    match record with
    | Instant { cat; _ } | Open { cat; _ } -> filter cat
    | Close { id; _ } -> (
        match close_info id with Some (cat, _) -> filter cat | None -> true)
  in
  List.iter
    (fun record ->
      if keep record then begin
        add_record_line buf record;
        Buffer.add_char buf '\n'
      end)
    (records t);
  Buffer.contents buf

let chrome ?(filter = fun _ -> true) t =
  let buf = Buffer.create 4096 in
  let close_info = cat_of_close t in
  Buffer.add_string buf {|{"traceEvents": [|};
  let first = ref true in
  let emit ~name ~cat ~ph ~time ?id args =
    if !first then first := false else Buffer.add_string buf ",";
    Buffer.add_string buf "\n  {\"name\": ";
    Json.add_quoted buf name;
    Buffer.add_string buf ", \"cat\": ";
    Json.add_quoted buf cat;
    Buffer.add_string buf
      (Printf.sprintf {|, "ph": "%s", "ts": %.3f, "pid": 0, "tid": 0|} ph (time *. 1e6));
    (match id with None -> () | Some id -> Buffer.add_string buf (Printf.sprintf {|, "id": %d|} id));
    if ph = "i" then Buffer.add_string buf {|, "s": "t"|};
    if args <> [] then begin
      Buffer.add_string buf {|, "args": |};
      add_args buf args
    end;
    Buffer.add_string buf "}"
  in
  List.iter
    (fun record ->
      match record with
      | Instant { time; name; cat; span; args } ->
          if filter cat then
            if span <> none then emit ~name ~cat ~ph:"n" ~time ~id:span args
            else emit ~name ~cat ~ph:"i" ~time args
      | Open { time; name; cat; id; args; _ } ->
          if filter cat then emit ~name ~cat ~ph:"b" ~time ~id args
      | Close { time; id; args } -> (
          match close_info id with
          | Some (cat, name) -> if filter cat then emit ~name ~cat ~ph:"e" ~time ~id args
          | None -> ()))
    (records t);
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf
