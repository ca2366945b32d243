(** Group State maintenance (§II-B, Figure 2).

    Multicast and anycast are implemented as shared state: every overlay
    node knows, for each group, *which overlay nodes* have locally connected
    clients in the group — and nothing about the other nodes' individual
    clients. This two-level hierarchy is what makes global group state
    practical (§II-B). Only receivers join; any client may send to a group
    (§III-B).

    Membership changes are advertised with sequence-numbered group updates,
    flooded like LSUs. *)

type t

val create : self:int -> nnodes:int -> t

val version : t -> int
(** Increments whenever remote or local membership changes (multicast trees
    must be recomputed). *)

val join_local : t -> group:int -> port:int -> Msg.t option
(** A locally connected client (at the virtual port) joins. Returns a group
    update to flood when this makes the node a member it wasn't before. *)

val leave_local : t -> group:int -> port:int -> Msg.t option
(** Returns an update to flood when the node ceases to be a member. *)

val member_nodes : t -> group:int -> int list
(** Overlay nodes with members, ascending (includes self if applicable). *)

val has_local : t -> group:int -> bool
val local_ports : t -> group:int -> int list

val apply_update : t -> origin:int -> gseq:int -> (int * bool) list -> bool
(** Integrates a flooded membership update; [true] when new (forward it). *)

val groups : t -> int list
(** All groups with at least one member node, ascending. *)
