(** Connectivity Graph Maintenance (§II-B, Figure 2).

    Every overlay node maintains global state about the condition of all
    overlay links; because the overlay has only a few tens of nodes, this
    state is small and can be updated in a timely manner, enabling
    "fast reactions to changes in the network, with the ability to route
    around problems at a sub-second scale" (§II-A).

    A node learns local link conditions from its hello protocol (driven by
    {!Node}) and advertises them in sequence-numbered link-state updates
    (LSUs) that are flooded to every node. A link is considered usable only
    when *both* endpoints currently advertise it up, and its metric is the
    larger of the two advertised latencies.

    [version] increments whenever the usable set or a metric changes, which
    is how the routing level ({!Route}) knows to recompute. *)

type t

val create :
  self:int -> Strovl_topo.Graph.t -> metric:(int -> int) -> t
(** [metric] gives the initial latency (µs) of each overlay link. All links
    start up. *)

val self : t -> int
val graph : t -> Strovl_topo.Graph.t
val version : t -> int

val stamp : t -> int
(** Moves on every change to what {!usable} or {!weight} reads: whenever
    [version] does, and also on the metric and loss changes too small to
    advertise, which [version] skips. A cache of anything built from
    [weight] is valid while the stamp stands. *)

val usable : t -> int -> bool
(** Both endpoints advertise the link up. *)

val metric : t -> int -> int
(** Current latency metric of the link (µs). *)

val loss : t -> int -> int
(** Current advertised loss rate of the link, permille (max of the two
    endpoints' reports). *)

val effective_metric : t -> int -> int
(** The latency metric inflated by the loss rate: [metric / (1-p)²],
    approximating the expected cost of a link whose protocol must retry
    lost transmissions. Routing on this weight steers traffic around lossy
    (but alive) links — the §II-B motivation for sharing loss
    characteristics. Links at ≥80% loss are treated as effectively
    infinite. *)

val use_effective_metric : t -> bool -> unit
(** Selects which metric {!weight} exposes (default: plain latency). *)

val weight : t -> int -> int
(** The routing weight: {!metric} or {!effective_metric} per
    {!use_effective_metric}. *)

val local_view : t -> int -> bool
(** What this node currently advertises for one of its incident links. *)

val set_local : t -> link:int -> up:bool -> Msg.t option
(** Records the hello protocol's verdict about an incident link. Returns a
    fresh LSU to flood when the state actually changed ([None] if it was
    already so). The LSU is unauthenticated; {!Node} signs it when a key
    registry is configured. *)

val set_local_metric : t -> link:int -> metric:int -> Msg.t option
(** Updates the advertised latency of an incident link (from hello RTT
    measurements). Returns an LSU when the change is significant (>10%). *)

val set_local_loss : t -> link:int -> loss:int -> Msg.t option
(** Updates the advertised loss rate (permille) of an incident link (from
    hello delivery statistics). Returns an LSU when the change is
    significant (>20 permille). *)

val refresh_lsu : t -> Msg.t
(** A periodic re-advertisement of the node's current incident-link state
    (new sequence number), providing eventual consistency against lost
    floods. *)

val apply_lsu :
  t -> origin:int -> lsu_seq:int -> (int * Msg.link_info) list -> bool
(** Integrates a received LSU. Returns [true] when the LSU was new (higher
    sequence than any seen from that origin) and must be forwarded to the
    node's other neighbors (constrained flooding); [false] when stale. *)

val highest_seq : t -> int -> int
(** Highest LSU sequence seen from a given origin (-1 if none). *)
