(** Overlay topology substrate: graphs, routing algorithms, and the
    redundant-dissemination constructions the paper's source-based routing
    enables (k node-disjoint paths, dissemination graphs, constrained
    flooding), plus generators for resilient multi-ISP topologies. *)

module Graph = Graph
module Dijkstra = Dijkstra
module Disjoint = Disjoint
module Bitmask = Bitmask
module Mcast = Mcast
module Dissem = Dissem
module Gen = Gen
