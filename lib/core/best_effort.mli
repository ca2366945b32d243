(** Best Effort link protocol (Figure 2): transmit once, no recovery.

    The overlay still improves on the raw Internet for best-effort flows via
    routing (sub-second reroute, multicast trees); this protocol just adds
    no per-link reliability. It is also the baseline the recovery protocols
    are measured against. *)

type t

val create : ?lseq:int -> Lproto.ctx -> t
(** [lseq] is the lseq of the last message sent (default 0); the next
    message carries its successor, which wraps to 0 past 2^32 - 1. *)

val send : t -> Packet.t -> unit
val recv : t -> Msg.t -> unit
