(** The session interface (Figure 2, top level): how applications use the
    overlay.

    "To receive service from the overlay, a client simply connects to an
    overlay node"; it is addressed by that node plus a virtual port, and
    selects routing + link services per flow (§II-B, §II-C). A client can
    join multicast groups (receivers only — any client may send to a
    group, §III-B) and open any number of sender handles with different
    service combinations.

    On the receive side the client runs the final-destination reorder
    buffer per incoming flow ({!Deliver}), with the mode implied by the
    flow's service: Reliable → strict in-order; Realtime → in-order with
    deadline give-up; others → immediate. *)

type t

val attach : Node.t -> port:int -> t
(** Connects a client at a virtual port of an overlay node. *)

val detach : t -> unit

val join : t -> group:int -> unit
val leave : t -> group:int -> unit

val set_receiver : t -> ?reorder:bool -> (Packet.t -> unit) -> unit
(** Registers the application delivery callback. With [reorder] (default
    true), packets pass through the per-flow destination buffer first. *)

val received : t -> int
(** Packets handed to the application callback. *)

(** A sender handle fixes a flow (destination, ports, service, routing
    preference) and stamps sequence numbers. *)
type sender

type route_pref =
  | Table  (** link-state routing — the overlay's default *)
  | Scheme of Strovl_topo.Dissem.scheme
      (** source-based: stamp each packet with a dissemination mask built
          from the node's current view (§II-B) *)

val sender :
  t ->
  ?service:Packet.service ->
  ?route:route_pref ->
  dest:Packet.dest ->
  dport:int ->
  unit ->
  sender

val send : sender -> ?bytes:int -> ?tag:string -> unit -> bool
(** Sends the next packet of the flow ([bytes] defaults to 1200). Returns
    [false] only when an IT-Reliable flow is refused by backpressure (the
    sequence number is not consumed, so a later retry keeps the stream
    dense). *)

val sent : sender -> int
