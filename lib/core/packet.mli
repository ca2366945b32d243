(** Overlay data packets and flow identity.

    A client's flow is "a source, one or more destinations, and the overlay
    services selected for that flow" (§II-C). Clients are addressed like IP:
    the overlay node they connect to plus a virtual port (§II-B). Payloads
    are carried as sizes plus an optional short tag — the protocols under
    test never look inside application data, so simulating bytes would only
    cost memory. *)

type node = int
type port = int
type group = int

type dest =
  | To_node of node  (** unicast to (node, port) *)
  | To_group of group  (** multicast: all members *)
  | Any_of_group of group  (** anycast: exactly one member (§II-B) *)

type routing =
  | Link_state
      (** forwarded hop-by-hop from each node's routing table (§II-B) *)
  | Source_mask of Strovl_topo.Bitmask.t
      (** unified source-based routing: traverse exactly the links in the
          mask — a path, k disjoint paths, a dissemination graph, or
          constrained flooding (§II-B) *)

type service =
  | Best_effort
  | Reliable  (** hop-by-hop Reliable Data Link (§III-A) *)
  | Realtime of { deadline : Strovl_sim.Time.t }
      (** NM-Strikes real-time link (§IV-A); [deadline] is the one-way
          delivery budget, e.g. 200 ms for live TV. N, M and the link
          budget come from the link's {!Realtime_link.config}. *)
  | It_priority of int
      (** intrusion-tolerant priority messaging; the int is the message
          priority assigned by the source (§IV-B) *)
  | It_reliable  (** intrusion-tolerant reliable messaging (§IV-B) *)
  | Fec
      (** forward-error-corrected link: proactive parity instead of
          reactive retransmission — the OverQoS-style alternative the
          related work contrasts (§VI), included as a baseline and as the
          demonstration that "new protocols can be easily added" (§II-B) *)

type flow = {
  f_src : node;
  f_sport : port;
  f_dest : dest;
  f_dport : port;
}
(** Flow identity, used for per-flow state (reorder buffers, IT-Reliable
    buffers) and de-duplication. *)

type t = {
  flow : flow;
  routing : routing;
  service : service;
  seq : int;  (** per-flow sequence number assigned at the origin session *)
  sent_at : Strovl_sim.Time.t;  (** origin timestamp *)
  bytes : int;  (** payload size *)
  tag : string;  (** free-form label for tests/debugging; not sized *)
  auth : int64 option;
      (** origin signature (intrusion-tolerant services): lets every node
          verify the packet really comes from its claimed source (§IV-B) *)
  hops : int;  (** overlay hops traversed so far; doubles as a TTL guard *)
  ingress : node;
      (** the overlay node where the packet entered the overlay (stamped by
          [Node.originate]; -1 before). Multicast trees are rooted here —
          for a compound flow (§V-C) the transformed stream re-enters at
          the transcoding facility, not at the flow's original source. *)
  replay : bool;
      (** set when a node re-injects the packet after a link failure
          stranded it in a Reliable Data Link store: intermediate nodes
          must forward it even if they saw it on the pre-failure route
          (suppression is left to the destination reorder buffer) *)
}

val make :
  flow:flow ->
  routing:routing ->
  service:service ->
  seq:int ->
  sent_at:Strovl_sim.Time.t ->
  bytes:int ->
  ?tag:string ->
  ?auth:int64 ->
  unit ->
  t

val placeholder : t
(** A packet no flow sends: fills the slots of a packet ring that hold no
    packet, so a released packet is not kept reachable by its old slot. *)

val next_hop_copy : t -> t
(** The packet as forwarded one hop further ([hops] incremented). *)

val with_ingress : t -> node -> t

val as_replay : t -> t

val max_hops : int
(** TTL guard against transient routing loops (64). *)

val signable : t -> string
(** Src, sport, dport, seq and bytes as text. No longer what an origin
    signature covers ({!Wire.signable} is); kept for the benchmark's
    crypto microbenchmark, which signs it. *)

val service_class : service -> int
(** Aggregation key: flows with the same class share link-protocol state on
    each overlay link (§II-C "flows may be aggregated ... based on the
    services they select"). *)

val class_count : int

val obs_flow : flow -> Strovl_obs.Trace.flow_id
(** The flow's identity for the {!Strovl_obs} flight recorder (group
    destinations are offset into distinct integer ranges). *)

val flow_compare : flow -> flow -> int

module Flow_map : Map.S with type key = flow
(** Maps keyed by flow, in {!flow_compare} order. *)

val pp : Format.formatter -> t -> unit
