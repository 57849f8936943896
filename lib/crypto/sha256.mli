(** SHA-256 (FIPS 180-4), implemented from scratch and checked against the
    official test vectors in the test suite.

    One compression path serves every caller: whole 64-byte blocks are
    compressed straight from the input string, and only the tail short of a
    block is copied, to be padded. A message may arrive as any number of
    pieces ({!start}, {!feed}, {!finish}); the digest is that of their
    concatenation. *)

type state
(** An immutable chaining value after a whole number of blocks. *)

val initial : state
(** The standard initial value: no block compressed yet. *)

val midstate : string -> state
(** The state after compressing [blocks] from {!initial}. HMAC keeps one
    per padded key block.
    @raise Invalid_argument unless the length is a multiple of 64. *)

type ctx
(** A digest in progress, owned by one caller. *)

val start : state -> ctx
(** A fresh context that continues from [state]; the state itself is never
    written. *)

val feed : ctx -> string -> unit
(** Append a piece of the message. *)

val finish : ctx -> string
(** Pad, compress the tail and return the 32-byte raw digest. The context
    is spent. *)

val digest : string -> string
(** 32-byte raw digest. *)

val hex_digest : string -> string
(** Lowercase hex rendering of {!digest}. *)
