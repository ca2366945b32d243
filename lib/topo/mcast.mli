(** Overlay multicast trees.

    §III-B: "the overlay is able to construct the most efficient multicast
    tree to route messages to all overlay nodes that have clients in the
    group". We build the standard source-rooted shortest-path tree pruned to
    the overlay nodes with group members — the construction link-state
    multicast (and Spines) uses, since every node shares the same
    connectivity graph and membership state and thus computes the same
    tree. *)

type t = {
  source : Graph.node;
  links : Graph.link list; (** tree links, parent-before-child order *)
  members : Graph.node list; (** the receiver overlay nodes *)
  out_links : Graph.link list array; (** per node: tree links to children *)
}

val shortest_path_tree :
  ?usable:(Graph.link -> bool) ->
  weight:(Graph.link -> int) ->
  Graph.t ->
  source:Graph.node ->
  members:Graph.node list ->
  t
(** Tree covering every reachable member. Unreachable members are silently
    absent (check {!covers}). *)

val covers : t -> Graph.node -> bool
val link_cost : t -> int
(** Number of links a packet traverses to reach all members once. *)

val unicast_link_cost :
  ?usable:(Graph.link -> bool) ->
  weight:(Graph.link -> int) ->
  Graph.t ->
  source:Graph.node ->
  members:Graph.node list ->
  int
(** Baseline: total links traversed when sending one separate unicast along
    the shortest path to each member (what an application must do without
    overlay multicast, §III-B). *)
