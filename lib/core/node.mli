(** The overlay node daemon (Figure 2).

    Runs the three-level software architecture on one overlay node: the
    *session interface* (client attach, per-flow service selection), the
    *routing level* (link-state and source-based forwarding, connectivity
    graph maintenance, group state), and the *link level* (one protocol
    state machine per service class on each incident overlay link).

    The node is transport-agnostic: {!attach_link} wires each incident
    overlay link with an [xmit] closure (provided by {!Net}), and the
    network calls {!receive} when a wire message arrives. Per-packet
    forwarding charges a configurable CPU cost (§II-D: "less than 1 ms
    additional latency per intermediate overlay node"). *)

type t

type config = {
  hello_interval : Strovl_sim.Time.t;
      (** period of the hello protocol, the node's one link monitor
          ({!Link_monitor}): each hello round trip feeds the link's RTT and
          loss estimate; default 100 ms *)
  hello_timeout : Strovl_sim.Time.t;
      (** link declared down after this silence, and re-suspected for ISP
          rotation every further [hello_timeout] it stays silent; default
          350 ms — the knob behind "sub-second rerouting" (§II-A) *)
  proc_delay : Strovl_sim.Time.t;
      (** CPU time to process one packet; default 50 µs *)
  proc_rate_pps : int option;
      (** finite processing capacity (§II-D): with [Some r], the node is a
          serial CPU server handling [r × cluster_size] packets/s; packets
          queue for the CPU and are dropped beyond 20 ms of backlog.
          [None] (default) models a node comfortably at line speed. *)
  cluster_size : int;
      (** computers in this node's data-center cluster (§II-D: "additional
          processing resources can be deployed as clusters"); multiplies
          [proc_rate_pps]; default 1 *)
  in_order_forwarding : bool;
      (** the Reliable Data Link ablation of §III-A ({!Reliable_link.create}):
          hold packets at each hop until contiguous; default [false] *)
  realtime : Realtime_link.config;
  it_priority : It_priority.mode;
      (** scheduler of the IT-Priority links; default [Round_robin], the
          paper's fair one *)
  loss_aware_routing : bool;
      (** route on the loss-inflated metric (§II-B: the connectivity graph
          shares "loss and latency characteristics") so lossy-but-alive
          links are avoided when a clean detour exists; default off *)
}

val default_config : config

type counters = {
  forwarded : int;  (** data packets sent onward *)
  delivered : int;  (** data packets handed to local sessions *)
  dropped_no_route : int;
  dropped_ttl : int;
  dropped_auth : int;  (** failed origin-signature verification *)
  dropped_dup : int;  (** redundant copies suppressed (de-dup) *)
  dropped_backpressure : int;  (** IT-Reliable refusals *)
  dropped_overload : int;  (** CPU queue overflow (§II-D) *)
  lsu_floods : int;
  group_floods : int;
}

val create :
  ?config:config ->
  ?registry:Strovl_crypto.Auth.registry ->
  engine:Strovl_sim.Engine.t ->
  graph:Strovl_topo.Graph.t ->
  id:int ->
  metric:(int -> int) ->
  unit ->
  t
(** With [registry], the node signs and verifies flooded state updates and
    IT data (§IV-B); without one it does neither. *)

val id : t -> int
val config : t -> config
val conn : t -> Conn_graph.t
val group : t -> Group.t
val route : t -> Route.t
val counters : t -> counters
(** A snapshot of this node's counts so far; each is also a
    [Strovl_obs.Metrics] counter summed over the run's nodes. *)

val engine : t -> Strovl_sim.Engine.t

val attach_link :
  t ->
  link:int ->
  bandwidth_bps:int ->
  xmit:(Msg.t -> unit) ->
  unit
(** Wires an incident overlay link. [xmit] must carry the message to the
    neighbor's {!receive}. Must be called before {!start}. The node's links
    are fixed at {!create}: [link] must be one of [Graph.incident graph id].
    @raise Invalid_argument for a link not incident to the node, or after
    {!start}. *)

val set_link_suspect_hook : t -> (int -> unit) -> unit
(** Called when the hello protocol declares an incident link down — the
    network layer uses it to rotate the link to a different ISP
    (multihoming, §II-A). *)

val start : t -> unit
(** Begins the hello protocol and periodic LSU refresh on every attached
    link. *)

val stop : t -> unit
(** Shuts the node down in place: hello/LSU loops stop rescheduling, and
    subsequent {!receive} calls are dropped.
    For hosts whose engine outlives the node — the wall-clock runtime
    closing a daemon, or tests killing one node of an in-process overlay.
    Irreversible. *)

val receive : t -> link:int -> Msg.t -> unit
(** Entry point for wire messages from the attached links. *)

val register_session : t -> port:int -> deliver:(Packet.t -> unit) -> unit
(** Attaches a client session at a virtual port (§II-B addressing). *)

val unregister_session : t -> port:int -> unit

val join_group : t -> group:int -> port:int -> unit
val leave_group : t -> group:int -> port:int -> unit

val originate : t -> Packet.t -> bool
(** Injects a locally originated packet into the routing level. Returns
    [false] only for [It_reliable] packets refused by backpressure; all
    other services always accept (they may drop later per their
    semantics). Signs the packet when authentication is on. *)

val link_up_view : t -> link:int -> bool
(** This node's current hello-protocol verdict on an incident link. *)

val link_health : t -> link:int -> Strovl_obs.Health.t option
(** The hello protocol's live estimate for an incident link (RTT, jitter,
    loss, liveness) — the values this node advertises. [None] if the link
    is not attached here. *)
