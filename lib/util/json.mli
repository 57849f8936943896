(** The one JSON module: a minimal tree, writer and parser, and the only
    JSON string escaper in the repository.

    Streaming emitters (traces, metrics, provenance, transcripts) build
    their lines by hand and quote every string through {!quote} or
    {!add_quoted}; artifacts that are read back (the conformance checker's
    reproducers, provenance replay) also use the tree. {!to_string} output
    is stable (object fields in construction order, floats via ["%.17g"]
    so every schedule timestamp survives exactly) and {!parse} accepts
    standard JSON. It is a tool for artifacts, not a general-purpose JSON
    library: deep nesting is bounded, and [\u] escapes above [\u007f]
    decode to ['?'] (the writer never produces them). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val quote : string -> string
(** The string as a JSON string literal, quotes included. Double quote and
    backslash are backslash-escaped, newline, carriage return and tab
    become [\n], [\r] and [\t], other bytes below 0x20 become [\u00XX],
    and every other byte (UTF-8 sequences included) passes through
    unchanged, so {!parse} returns the original bytes. *)

val add_quoted : Buffer.t -> string -> unit
(** {!quote} into a buffer. *)

val to_string : t -> string
(** Compact rendering (no insignificant whitespace). [Float] uses ["%.17g"],
    which round-trips every finite double; non-finite floats render as
    [null]. *)

val to_string_pretty : t -> string
(** Two-space indented rendering for human-facing artifacts. Same value
    encoding as {!to_string}. *)

val parse : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed; trailing garbage
    is an error). Numbers with [.], [e] or [E] parse as [Float], others as
    [Int] (falling back to [Float] on 63-bit overflow). Errors carry a
    character offset. *)

val member : string -> t -> t option
(** Field lookup in an [Obj] (first match); [None] on other constructors. *)

val to_int : t -> int option
(** [Int] payload; also accepts an integral [Float]. *)

val to_float : t -> float option
(** [Float] or [Int] payload. *)

val to_list : t -> t list option
val to_bool : t -> bool option
val string_value : t -> string option
