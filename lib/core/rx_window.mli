(** The one receive window of the link protocols that order by link
    sequence number (lseq): Reliable (§III-A), NM-Strikes (§IV-A) and FEC
    (§VI). Below a floor every lseq counts as seen; above it, one state byte
    per lseq in (floor, floor + length] sits in a power-of-two ring indexed
    by [lseq land mask], grown on demand. Nothing here allocates on the
    per-packet path. A gap timer asks {!seen} when it fires instead of being
    tracked and cancelled. *)

type t

val bound : int
(** 2{^16}: no honest sender gets this far past the floor (the largest gap
    any experiment of the suite opens is a few hundred lseqs). *)

val create : proto:string -> t
(** Floor 0, nothing seen; [proto] labels the drop counter. *)

val beyond : t -> int -> bool
(** Whether the lseq is more than {!bound} past the floor; if so, counts one
    drop in [strovl_link_window_drops_total{proto}]. The caller discards
    the message, so one forged lseq (a u32 on the wire) cannot buy work
    for every slot it skips. *)

val seen : t -> int -> bool
(** At or below the floor, or {!set}. *)

val set : t -> int -> unit
(** Marks the lseq seen; a no-op at or below the floor. Raises
    [Invalid_argument] when it is {!beyond} the window. *)

val take_next : t -> bool
(** Advances the floor by one if floor + 1 is seen: an ARQ receiver's
    cumulative point. *)

val slide : t -> int -> unit
(** Raises the floor to the given lseq, forgetting what it passes; a no-op
    when that is not above the floor. *)

val floor : t -> int

val high : t -> int
(** The highest lseq ever {!set}, 0 before any. *)
