type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---------- Writer ---------- *)

let add_quoted buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  add_quoted buf s;
  Buffer.contents buf

let float_into buf f =
  if Float.is_finite f then begin
    let s = Printf.sprintf "%.17g" f in
    Buffer.add_string buf s;
    (* "%.17g" prints integral doubles without a decimal point; keep the
       value a JSON float so it parses back into the same constructor. *)
    if String.for_all (fun c -> c <> '.' && c <> 'e' && c <> 'E') s then
      Buffer.add_string buf ".0"
  end
  else Buffer.add_string buf "null"

let rec value_into buf ~indent ~level v =
  let sep, pad, pad_close =
    match indent with
    | None -> (",", "", "")
    | Some width ->
        ( ",\n" ^ String.make (width * (level + 1)) ' ',
          "\n" ^ String.make (width * (level + 1)) ' ',
          "\n" ^ String.make (width * level) ' ' )
  in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> float_into buf f
  | String s -> add_quoted buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          Buffer.add_string buf (if i = 0 then pad else sep);
          value_into buf ~indent ~level:(level + 1) item)
        items;
      Buffer.add_string buf pad_close;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (name, field) ->
          Buffer.add_string buf (if i = 0 then pad else sep);
          add_quoted buf name;
          Buffer.add_string buf (match indent with None -> ":" | Some _ -> ": ");
          value_into buf ~indent ~level:(level + 1) field)
        fields;
      Buffer.add_string buf pad_close;
      Buffer.add_char buf '}'

let render ~indent v =
  let buf = Buffer.create 256 in
  value_into buf ~indent ~level:0 v;
  Buffer.contents buf

let to_string v = render ~indent:None v
let to_string_pretty v = render ~indent:(Some 2) v

(* ---------- Parser ---------- *)

exception Parse_error of int * string

let parse input =
  let n = String.length input in
  let pos = ref 0 in
  let fail message = raise (Parse_error (!pos, message)) in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match input.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | Some got -> fail (Printf.sprintf "expected %C, found %C" c got)
    | None -> fail (Printf.sprintf "expected %C, found end of input" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub input !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "invalid literal (expected %s)" word)
  in
  let parse_hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let h = String.sub input !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ h) with
    | Some code -> if code < 0x80 then Char.chr code else '?'
    | None -> fail "malformed \\u escape"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | None -> fail "unterminated escape"
          | Some c ->
              advance ();
              (match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'n' -> Buffer.add_char buf '\n'
              | 't' -> Buffer.add_char buf '\t'
              | 'r' -> Buffer.add_char buf '\r'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'u' -> Buffer.add_char buf (parse_hex4 ())
              | c -> fail (Printf.sprintf "unknown escape \\%C" c)));
          loop ()
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_number_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && is_number_char input.[!pos] do
      advance ()
    done;
    let text = String.sub input start (!pos - start) in
    let is_float = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text in
    if is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "malformed number %S" text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail (Printf.sprintf "malformed number %S" text))
  in
  let rec parse_value depth =
    if depth > 64 then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value (depth + 1) ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value (depth + 1) :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let name = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            (name, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos < n then fail "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, message) ->
      Error (Printf.sprintf "JSON parse error at offset %d: %s" at message)

(* ---------- Accessors ---------- *)

let member name v =
  match v with
  | Obj fields -> List.find_map (fun (n, field) -> if n = name then Some field else None) fields
  | _ -> None

let to_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
let to_list = function List items -> Some items | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let string_value = function String s -> Some s | _ -> None
