(** HMAC-SHA256 (RFC 2104), checked against RFC 4231 test vectors.

    A key holds the SHA-256 states after its inner and outer padded blocks,
    computed once when the key is made, so a MAC compresses only the
    message and the inner digest. *)

type key
(** Immutable: any number of MACs, on any domain, may share one. *)

val key : string -> key

val mac : key -> string list -> string
(** 32-byte raw MAC of the concatenation of the pieces. *)
