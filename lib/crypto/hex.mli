(** Lowercase hexadecimal, two digits per byte, from a digit table. Every
    hex rendering in the simulator (digests, signatures, identifiers) goes
    through {!encode}. *)

val encode : string -> string
