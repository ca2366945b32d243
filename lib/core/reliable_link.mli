(** Reliable Data Link: hop-by-hop ARQ recovery (Figure 2, §III-A, [4]).

    The resilient architecture replaces one high-latency end-to-end path
    with a series of short overlay links; adding ARQ *per link* localizes
    loss recovery: a retransmission costs one short-link round trip instead
    of an end-to-end round trip (Figure 3: 70 ms vs 150 ms on a 50 ms
    path). Received packets are forwarded upward immediately — out of
    order — and only the final destination reorders (§III-A), which is what
    smooths delivery.

    Mechanics: per-(link, class) sequence numbers; the receiver detects gaps
    when later packets arrive and sends NACKs immediately (repeating every
    ~2 RTT until filled, and giving a gap up after 50 unanswered NACKs,
    when the peer rerouted its packets away from a dead link); cumulative
    ACKs (every 16 packets or 25 ms) let the sender garbage-collect its
    retransmission store; a sender-side RTO covers tail losses with no
    following packet. The retransmission store is unbounded, leveraging the
    overlay node's "ample memory" (§II-B).

    Both windows are rings indexed by [lseq land mask], so the per-packet
    bookkeeping allocates nothing. The sender's unacked lseqs are always one
    contiguous range, held in a power-of-two packet array that doubles when
    full (it never shrinks, and is still unbounded). The receiver is an
    {!Rx_window} whose floor is its cumulative point [cum]; a [Data] message
    more than {!Rx_window.bound} past [cum] is dropped and counted in
    [strovl_link_window_drops_total{proto="reliable"}]. *)

type t

val create : in_order:bool -> Lproto.ctx -> t
(** [in_order] is the ablation of §III-A's design choice: hold received
    packets at each hop until contiguous before forwarding, which
    out-of-order forwarding deliberately avoids; [false] is the paper's
    protocol. It quantifies the latency/jitter benefit of forwarding out
    of order. *)

val send : t -> Packet.t -> unit
val recv : t -> Msg.t -> unit

val drain_store : t -> Packet.t list
(** Removes and returns every unacknowledged packet, oldest first, and
    cancels the retransmission timer. Called by the node when the overlay
    link is declared down: reliability is preserved *across the reroute* by
    re-injecting these packets into the routing level — the overlay-level
    behaviour that makes the Reliable Data Link survive sub-second
    rerouting (§III-A + §II-A). Some of the packets may already have
    reached the peer (ack in flight); destinations de-duplicate. *)

val store_size : t -> int
(** Packets currently held for possible retransmission. *)
