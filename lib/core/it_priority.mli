(** Intrusion-Tolerant Priority messaging (§IV-B).

    Timely, as-reliable-as-conditions-allow forwarding that a compromised
    source cannot starve: the outgoing side of each overlay link keeps a
    separate bounded buffer *per source overlay node* and serves active
    sources in round robin, so a flooding source only ever consumes its own
    share of the link. When a source's buffer fills, the *oldest
    lowest-priority* message of that source is dropped, keeping the highest
    priority messages timely; each eviction is counted in
    [strovl_link_queue_drops_total{proto="it-priority"}].

    A [Fifo] mode implements the non-intrusion-tolerant baseline (single
    shared drop-tail queue) that the fairness experiment contrasts against.

    Transmission is self-paced at the link bandwidth, so the scheduling
    decision — which source's packet goes next — is made here and not in the
    underlying FIFO of the network interface. *)

type t

type mode =
  | Round_robin  (** the paper's fair scheduler *)
  | Fifo  (** baseline: one shared queue, drop-tail *)

val create : mode:mode -> Lproto.ctx -> t
(** Buffers 64 packets per source in [Round_robin] mode, 512 in all in
    [Fifo] mode. *)

val send : t -> Packet.t -> unit
(** Enqueue for transmission on this link. Never refuses; overflow follows
    the drop policy. The packet's priority is taken from its
    [It_priority p] service. *)

val recv : t -> Msg.t -> unit

val queue_len : t -> source:int -> int
(** Packets waiting in the given source overlay node's buffer (in [Fifo]
    mode, in the one shared buffer). *)
