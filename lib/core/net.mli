(** Whole-overlay construction: instantiates one {!Node} per site of a
    topology spec, realizes every designed overlay link over the simulated
    underlay ({!Strovl_net.Link}), and wires multihoming.

    This is the deployment story of §II-A: overlay nodes in data centers,
    overlay links over ISP backbones, each link switchable between
    providers. When a node's hello protocol suspects a link, the network
    rotates that link to a different ISP (rate-limited so the two endpoints
    don't fight). *)

type config = {
  node : Node.config;
  link : Strovl_net.Link.config;
  authenticate : bool;
      (** create a key registry (from one fixed master secret) and enable
          signing/verification *)
}

val default_config : config

type t

val create :
  ?config:config ->
  ?underlay:Strovl_net.Underlay.t ->
  Strovl_sim.Engine.t ->
  Strovl_topo.Gen.spec ->
  t
(** Builds the overlay. With [underlay], the overlay rides an existing
    simulated Internet instead of creating its own — "multiple overlays can
    even be run in parallel (with each overlay potentially using a
    different variant of the overlay software)" (§II-B): build several
    [Net]s with different configs over one underlay. The spec must be the
    one the underlay was built from. *)

val engine : t -> Strovl_sim.Engine.t
val underlay : t -> Strovl_net.Underlay.t
val spec : t -> Strovl_topo.Gen.spec
val graph : t -> Strovl_topo.Graph.t
val nnodes : t -> int
val node : t -> int -> Node.t
val net_link : t -> int -> Strovl_net.Link.t
(** The transport carrying a given overlay link. *)

val start : t -> unit
(** Starts every node (hello protocols, LSU refresh). *)

val settle : ?duration:Strovl_sim.Time.t -> t -> unit
(** Runs the engine for [duration] (default 2 s) so hellos measure RTTs and
    initial floods propagate — call once after {!start}, before driving
    workloads. *)

val link_metric : t -> int -> int
(** Initial (design) one-way latency of an overlay link, µs. *)

(** {2 Wire taps (fault/compromise injection)}

    A compromised overlay node (§IV-B) holds valid credentials but may
    behave arbitrarily. The attack library models this by tapping the
    node's wire: every message it sends or receives passes through its tap,
    which can pass, drop, delay, or replace it. Correct protocol state
    machines keep running underneath — exactly the situation of a daemon
    whose host is owned. *)

type tamper =
  | Pass
  | Drop
  | Replace of Msg.t
  | Delay of Strovl_sim.Time.t

val set_wire_tap :
  t ->
  node:int ->
  (dir:[ `Out | `In ] -> link:int -> Msg.t -> tamper) ->
  unit

val clear_wire_tap : t -> node:int -> unit

val inject : t -> node:int -> link:int -> Msg.t -> unit
(** Sends a raw wire message from the node on one of its incident links, as
    a compromised daemon could. Used by the attack library to attempt
    forgeries (e.g. LSUs claiming another node's links are down), which
    authentication must defeat.
    @raise Invalid_argument if the node is not an endpoint of the link. *)
