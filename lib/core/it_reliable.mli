(** Intrusion-Tolerant Reliable messaging (§IV-B).

    Complete end-to-end reliability with fairness under compromise: the
    outgoing side of each overlay link keeps a separate bounded buffer *per
    source-destination flow* (so a compromised destination cannot block a
    source's other flows) and serves active flows round robin.

    Hop-by-hop reliability with explicit acceptance: a packet is acked only
    once the next hop has taken responsibility for it (accepted it into its
    own buffers). The sender keeps the packet — occupying its buffer slot —
    and retransmits with exponential backoff until acked. A full buffer at
    the next hop therefore silently refuses, the packet stays buffered
    upstream, and the stall propagates backward hop by hop: "creating
    backpressure (potentially all the way back to the source)". Each
    retransmission is counted in
    [strovl_link_retransmits_total{proto="it-reliable"}].

    {!offer} refuses when the flow's buffer is full, which is the
    backpressure signal the session level relays to the sending client. *)

type t

val create : Lproto.ctx -> t
(** Buffers 32 packets per flow (queued + unacked); retransmits after
    3×RTT, doubling the timeout on each retry up to 2{^6}×. *)

val can_accept : t -> flow:Packet.flow -> bool
(** Whether {!offer} would currently succeed for the flow. Lets a node check
    *all* onward links before committing a packet to any of them (a
    source-routed IT packet may need several). *)

val offer : t -> Packet.t -> bool
(** Try to enqueue for transmission on this link; [false] = flow buffer
    full (backpressure). *)

val recv : t -> Msg.t -> unit
(** Handles incoming Data (acceptance decided by the context's [try_up]) and
    It_acks. *)

val total_buffered : t -> int
(** Packets queued or awaiting an ack, over all flows. *)
