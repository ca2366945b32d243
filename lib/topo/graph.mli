(** Undirected multigraph with integer node and link identifiers.

    This is the shape of an overlay topology: a small set of overlay nodes
    (numbered [0 .. n-1]) connected by overlay links. Links carry stable
    integer identifiers so that the paper's unified source-based routing
    mechanism (§II-B) can name "exactly the set of overlay links a packet
    should traverse" with one bit per link (see {!Bitmask}).

    Link attributes (latency, cost, state) are deliberately *not* stored
    here; algorithms take a [weight : link -> int] or [usable : link -> bool]
    function so the same graph serves the static topology, the current
    connectivity-graph view, and hypothetical views. *)

type t

type node = int
type link = int

val create : n:int -> t
(** [create ~n] is an edgeless graph on nodes [0 .. n-1]. *)

val n : t -> int
(** Number of nodes. *)

val link_count : t -> int

val add_link : t -> node -> node -> link
(** Adds an undirected link and returns its id. Ids are dense, assigned in
    insertion order starting at 0. Self-loops are rejected. *)

val endpoints : t -> link -> node * node
(** Endpoints in insertion order. *)

val other_end : t -> link -> node -> node
(** [other_end g l u] is the endpoint of [l] that is not [u].
    @raise Invalid_argument if [u] is not an endpoint of [l]. *)

val incident : t -> node -> link list
(** Links incident to a node, in insertion order. *)

val neighbors : t -> node -> (node * link) list
(** Adjacent [(node, link)] pairs, in insertion order. *)

val degree : t -> node -> int

val find_link : t -> node -> node -> link option
(** Some link joining the two nodes (the first inserted), if any. *)

val iter_links : t -> (link -> node -> node -> unit) -> unit

val connected : ?usable:(link -> bool) -> t -> bool
(** Whole-graph connectivity restricted to usable links (default: all). *)

val reachable : ?usable:(link -> bool) -> t -> node -> bool array
(** BFS reachability from a node over usable links. *)
