(** The routing level (§II-B, Figure 2): forwarding decisions computed from
    the shared connectivity graph and group state.

    Each node owns one [Route.t]. Tables are cached and recomputed lazily
    whenever {!Conn_graph.version} or {!Group.version} changes — a version
    bump caused by a flooded LSU is exactly the paper's sub-second reroute.
    Because every node computes over the same (eventually consistent)
    global state, the source-rooted multicast trees computed independently
    at each node agree. *)

type t

val create : Conn_graph.t -> Group.t -> t

val next_hop : t -> dst:int -> (int * int) option
(** [(neighbor, link)] for the first hop of the current min-latency path to
    [dst]; [None] if unreachable or [dst] is self. *)

val distance : t -> dst:int -> int option
(** Current shortest-path latency (µs) to the destination. *)

val path : t -> dst:int -> int list option
(** Current min-latency path as link ids. *)

val mcast_out_links : t -> source:int -> group:int -> int list
(** Tree links on which *this node* must forward a multicast packet of the
    given source-rooted group tree (empty when this node is a leaf or not on
    the tree). *)

val mcast_tree_links : t -> source:int -> group:int -> int list
(** All links of the source-rooted group tree (for accounting). *)

val anycast_target : t -> group:int -> int option
(** The nearest overlay node with members in the group — "the best target
    for a given anycast message" (§II-B). Self counts with distance 0. *)

val reachable : t -> dst:int -> bool

val usable_mask : t -> Strovl_topo.Bitmask.t
(** Bitmask of currently usable links — constrained flooding over the live
    topology. *)

val dissem_mask :
  t -> dst:int -> Strovl_topo.Dissem.scheme -> Strovl_topo.Bitmask.t
(** The dissemination mask for (self → dst) over the *currently usable*
    topology, for source-routed sends.

    Both masks are cached: [usable_mask] once, [dissem_mask] per
    [(dst, scheme)], until {!Conn_graph.stamp} moves, which it does on
    every change to a link's state, metric or loss (even one too small to
    advertise) and on {!Conn_graph.use_effective_metric}. So a cached mask
    is always the one a fresh build would return. Successive sends share
    the same mask value: no one mutates a mask once a packet carries it
    (only {!Strovl_topo.Dissem} and the wire decoder set bits, while
    building one), and callers must not either. *)
