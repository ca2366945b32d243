(** De-duplication of redundantly disseminated packets.

    Flow-based processing lets overlay nodes remember what they have already
    seen and suppress duplicates "in the middle of the network" (§I, §II-B):
    with k-disjoint-path or flooding dissemination the same packet reaches a
    node over several links, but must be forwarded and delivered once.

    Per flow we keep a sliding window of recently seen sequence numbers
    (bounded memory, exploiting the general-purpose computer's "ample
    memory" within reason). Sequence numbers older than the window are
    conservatively treated as already seen. *)

type t

val create : unit -> t
(** Remembers a window of 4096 sequence numbers per flow. *)

val seen : t -> Packet.flow -> int -> bool
(** [seen t flow seq] returns whether the packet was already recorded, and
    records it. The first call for a given (flow, seq) in the window returns
    [false]; subsequent calls return [true]. *)

val peek : t -> Packet.flow -> int -> bool
(** Like {!seen} but without recording. *)

val flows : t -> int
(** Number of flows currently tracked. *)
