(** Dissemination graphs: arbitrary subgraphs for redundant routing.

    §II-B and §V-A: source-based routing can send a packet over "arbitrary
    subgraphs of the overlay topology (dissemination graphs), or constrained
    flooding". Dissemination graphs (Babay et al., ICDCS 2017 [2]) add
    *targeted* redundancy where problems occur, instead of the uniform
    redundancy of k disjoint paths; the paper's remote-manipulation section
    (§V-A) combines them with single-strike recovery to meet a 65 ms one-way
    deadline.

    All constructors return a {!Bitmask.t} over the topology's links, ready
    to stamp into a source-routed packet. *)

type scheme =
  | Single_path  (** min-latency path *)
  | Two_disjoint  (** 2 node-disjoint paths (uniform redundancy) *)
  | K_disjoint of int
  | Source_problem
      (** 2-disjoint core plus an edge from the source to each of its
          neighbors and each neighbor's min-latency join toward the
          destination — targeted redundancy around a lossy source area *)
  | Dest_problem  (** symmetric: targeted redundancy around the destination *)
  | Robust_both  (** union of {!Source_problem} and {!Dest_problem} *)
  | Flooding  (** every usable link (maximal redundancy) *)

val build :
  ?usable:(Graph.link -> bool) ->
  weight:(Graph.link -> int) ->
  Graph.t ->
  src:Graph.node ->
  dst:Graph.node ->
  scheme ->
  Bitmask.t
(** Constructs the dissemination graph for the scheme. Raises
    [Invalid_argument] on [src = dst]. The mask may be empty when the pair
    is disconnected over usable links. *)

val cost : Bitmask.t -> int
(** Links in the graph = copies of each packet placed on the wire (§V-A
    compares schemes by this edge cost). *)

val connects :
  ?down:(Graph.link -> bool) ->
  Graph.t ->
  Bitmask.t ->
  src:Graph.node ->
  dst:Graph.node ->
  bool
(** Whether the dissemination graph still connects src to dst when the links
    for which [down] holds are removed (default none). Used by resilience
    experiments to check delivery feasibility. *)

val scheme_name : scheme -> string
