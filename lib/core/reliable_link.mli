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
    ~RTT until filled); cumulative ACKs let the sender garbage-collect its
    retransmission store; a sender-side RTO covers tail losses with no
    following packet. The retransmission store is unbounded, leveraging the
    overlay node's "ample memory" (§II-B).

    Both windows are rings indexed by [lseq land mask], so the per-packet
    bookkeeping allocates nothing. The sender's unacked lseqs are always one
    contiguous range, held in a power-of-two packet array that doubles when
    full (it never shrinks, and is still unbounded). The receiver keeps one
    state byte per lseq above its cumulative point [cum] (absent, passed up,
    or held for in-order forwarding), grown on demand up to
    {!max_window}. *)

type t

type config = {
  ack_every : int;  (** cumulative ack frequency in packets *)
  ack_delay : Strovl_sim.Time.t;  (** max delay before a pending ack is sent *)
  nack_repeat : Strovl_sim.Time.t option;
      (** override for the NACK repeat interval (default 2×RTT hint) *)
  rto : Strovl_sim.Time.t option;
      (** override for the sender retransmission timeout (default 3×RTT) *)
  in_order_forwarding : bool;
      (** ablation knob, default [false]: hold received packets at each hop
          until contiguous before forwarding — the behaviour §III-A's
          out-of-order forwarding deliberately avoids. Quantifies the
          latency/jitter benefit of the paper's design choice. *)
  max_nack_repeats : int;
      (** give a gap up after this many unanswered NACKs (default 50): when
          the peer rerouted the packets away from a dead link, the slot will
          never fill here *)
}

val default_config : config

val max_window : int
(** 2{^16}: a [Data] message more than this far past [cum] is dropped and
    counted in [strovl_link_window_drops_total{proto="reliable"}], so one
    forged or corrupt lseq (a u32 on the wire) cannot schedule a NACK timer
    for every slot it skips. The largest gap any experiment of the suite
    opens is a few hundred lseqs. *)

val create : ?config:config -> Lproto.ctx -> t
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

val sent : t -> int
(** First transmissions (not counting retransmissions). *)

val retransmissions : t -> int
val store_size : t -> int
(** Packets currently held for possible retransmission. *)

val delivered_up : t -> int
