(** The transport seam at the [Node]/network boundary.

    An overlay node never touches the medium its links run over: each
    incident link is wired with an {!endpoint} — a description of the link
    plus an opaque [xmit] closure — and incoming wire messages are pushed
    into [Node.receive]. Everything above this seam (link protocols, the
    hello protocol, routing, dedup, delivery) is medium-agnostic.

    Two transports exist:

    - the simulated network ([Net]): [xmit] charges the modeled
      bandwidth/latency/loss of the underlay and delivers in virtual time;
    - the real-time runtime ([Strovl_rt.Host], over [Rt_net]): [xmit]
      frames the message with the {!Wire} codec and writes a UDP datagram
      to the peer daemon's socket.

    Time needs no second seam: the node reads time and schedules timers
    only through its {!Strovl_sim.Engine.t}, whose clock is virtual under
    simulation and monotonic wall-clock when [Strovl_rt.Runtime] drives
    it. *)

type endpoint = {
  ep_link : int;  (** overlay link id (global, from the shared topology) *)
  ep_peer : int;  (** overlay node at the other end *)
  ep_bandwidth_bps : int;  (** access bandwidth, for link self-pacing *)
  ep_xmit : Msg.t -> unit;  (** carry one wire message to the peer *)
}

val attach : Node.t -> endpoint -> unit
(** Wires the endpoint into the node's link level. Must precede
    [Node.start]; the transport must route messages arriving from the peer
    into [Node.receive node ~link:ep_link]. *)
