(** End-to-end transport baselines over a direct Internet path.

    The comparison targets of Figure 3 (§III-A): the same ARQ machinery the
    overlay runs per 10 ms link, run once across the whole 50 ms path, so a
    recovery costs a full end-to-end round trip (≥150 ms total) instead of
    one short-link round trip. Internally this reuses {!Best_effort},
    {!Reliable_link}, {!Realtime_link} and {!Fec_link} verbatim — the
    protocols are identical; only the span differs, which is precisely the
    paper's point.

    The "path" is a {!Strovl_net.Link} between the two sites, i.e. the ISP's
    multi-hop routed Internet path with access queueing. *)

type service =
  | Best_effort
  | Reliable
  | Realtime of Realtime_link.config
  | Fec

type t

val create :
  Strovl_sim.Engine.t ->
  Strovl_net.Link.t ->
  service:service ->
  deliver:(Packet.t -> unit) ->
  t
(** Sender lives at the link's [a] endpoint, receiver at [b]. [deliver]
    fires in order at the receiver: strictly in-order for [Reliable],
    deadline-bounded in-order for [Realtime] (using the protocol's budget
    plus the path latency), immediate for [Best_effort] and [Fec]. *)

val send : t -> unit
(** Sends the next packet of the end-to-end stream, 1200 bytes. *)

val retransmissions : t -> int
(** Redundant sends: the [Data] and [Fec_parity] messages the sender (the
    link's [a] endpoint) has handed to the path, minus the packets {!send}
    made. Counted at the transmit closure this module gives the sender's
    protocol, so it is retransmissions for [Reliable] and [Realtime],
    parity symbols for [Fec] (2 per block of 8) and none for
    [Best_effort]. A message the path's queue tail-drops still counts:
    the sender paid for it. *)
