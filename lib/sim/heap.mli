(** Minimal binary min-heap of ints, used as the engine's far event lane
    (payload: an event slot) and by [Strovl_topo.Dijkstra] (payload: a
    node).

    Keys are [(time, sequence)] pairs compared lexicographically; the
    sequence number gives FIFO order among events scheduled for the same
    instant, which keeps simulations deterministic. Entries with equal
    keys pop in a fixed order that depends only on the sequence of pushes
    and pops (Dijkstra's tie-breaking relies on it).

    Keys and payloads live in unboxed parallel int arrays: no per-entry
    box is allocated, no write barrier is paid, and {!push}/{!pop_min} are
    allocation-free once the arrays have reached their high-water
    capacity. *)

type t

val create : unit -> t

val is_empty : t -> bool
val size : t -> int

val push : t -> time:int -> seq:int -> int -> unit

val min_time : t -> int
(** Time key of the minimum element.
    @raise Invalid_argument when empty. *)

val min_seq : t -> int
(** Sequence key of the minimum element.
    @raise Invalid_argument when empty. *)

val pop_min : t -> int
(** Removes the minimum element and returns its payload.
    @raise Invalid_argument when empty. *)

val clear : t -> unit
