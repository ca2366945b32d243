(** Structured overlay networks — the core library.

    An OCaml realization of the structured overlay framework of Babay et
    al., "Structured Overlay Networks for a New Generation of Internet
    Services" (ICDCS 2017): a small set of well-provisioned overlay nodes in
    data centers, connected by short multihomed overlay links, running a
    three-level software architecture (session interface / routing level /
    link level) with global shared state and flow-based processing.

    Typical use: build a topology spec ({!Strovl_topo.Gen}), instantiate the
    overlay with {!Net.create}, {!Net.start} and {!Net.settle}, then attach
    {!Client}s and open sender handles with the per-flow services of
    Figure 2 — best effort, hop-by-hop reliable, NM-Strikes real-time, or
    the intrusion-tolerant priority/reliable classes, over link-state or
    source-based (disjoint paths / dissemination graphs / constrained
    flooding) routing. *)

module Packet = Packet
module Msg = Msg
module Wire = Wire
module Dedup = Dedup
module Deliver = Deliver
module Conn_graph = Conn_graph
module Group = Group
module Route = Route
module Lproto = Lproto
module Rx_window = Rx_window
module Best_effort = Best_effort
module Reliable_link = Reliable_link
module Realtime_link = Realtime_link
module Link_monitor = Link_monitor
module It_priority = It_priority
module It_reliable = It_reliable
module Fec_link = Fec_link
module Node = Node
module Transport = Transport
module Net = Net
module Client = Client
module E2e = E2e
