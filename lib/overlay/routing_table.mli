(** Pastry jump (routing) tables built from global knowledge, secure
    variant — the per-owner reference that {!Inc_table} maintains for every
    node at once, and the table of Figure 1's Monte Carlo.

    The table has {!Id.digits} rows and {!Id.base} columns. The entry in row
    [i], column [j] holds a peer whose identifier shares an [i]-digit prefix
    with the owner and has [j] as its (i+1)-th digit. In the *secure*
    variant (Castro et al.), that peer must additionally be the live node
    closest to the point p = owner-with-digit-i-replaced-by-j, which strips
    the adversary of placement freedom. *)

type entry = { peer : Id.t; node : int  (** index of the peer in the overlay's node array *) }

type t

val rows : int
val columns : int

val get : t -> row:int -> col:int -> entry option

val build_secure : owner:Id.t -> sorted:(Id.t * int) array -> t
(** Constrained-table construction from global knowledge: [sorted] is the
    ascending (id, node index) array of all overlay members. The owner
    itself never fills a slot. *)

val occupancy : t -> int
(** Number of filled slots. *)

val iter : (row:int -> col:int -> entry option -> unit) -> t -> unit
