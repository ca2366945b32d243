(** Shared plumbing for link-level protocols (Figure 2, bottom layer).

    Each overlay link endpoint instantiates one protocol state machine per
    service class in use; flows of the same class are aggregated on the link
    (§II-C). The node wires each instance to the link with this context. *)

type ctx = {
  engine : Strovl_sim.Engine.t;
  node : int;
      (** id of the overlay node this endpoint lives on ([-1] for the
          direct-path e2e baselines) — flight-recorder identity *)
  link : int;
      (** id of the overlay link this endpoint serves ([-1] off-overlay) *)
  xmit : Msg.t -> unit;
      (** transmit a wire message to the peer endpoint of this link *)
  up : Packet.t -> unit;
      (** hand a received data packet up to the node's routing level *)
  try_up : Packet.t -> bool;
      (** like [up] but refusable — IT-Reliable uses the refusal to create
          hop-by-hop backpressure (§IV-B); returns acceptance *)
  bandwidth_bps : int;  (** the link's access bandwidth, for self-pacing *)
  rtt_hint : Strovl_sim.Time.t;
      (** the link's round-trip estimate, for retransmission timers *)
}

(** The lseq after [l] for a protocol that never orders by lseq (Best
    Effort, IT-Priority, IT-Reliable): it wraps at 2^32, the width of the
    wire's lseq field, so the codec's range check is never reached.
    Protocols that order by lseq (Reliable, Realtime, FEC) cannot wrap
    without a per-link epoch; a message of theirs past 2^32 - 1 is dropped
    by the daemon's transmit path. *)
let next_lseq l = (l + 1) land 0xffff_ffff

(** Flight-recorder helpers: guard first so the disabled path costs one
    dereference. An event with arguments is a block the caller builds
    before the guard runs, so a per-packet caller tests
    [Strovl_obs.Trace.armed] itself. *)
let trace_pkt ctx pkt ev =
  if Strovl_obs.Trace.armed () then
    Strovl_obs.Trace.emit
      ~flow:(Packet.obs_flow pkt.Packet.flow)
      ~seq:pkt.Packet.seq ~node:ctx.node ev

let trace ctx ev =
  if Strovl_obs.Trace.armed () then Strovl_obs.Trace.emit ~node:ctx.node ev
