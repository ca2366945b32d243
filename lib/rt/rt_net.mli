(** One live overlay daemon: a {!Strovl.Node} wired to a real UDP socket.

    This is {!Strovl.Net}'s role under the wall-clock runtime — the glue
    between the transport seam and the wire. Each incident overlay link is
    attached through {!Strovl.Transport} with an [xmit] that frames the
    message as a [Dg_msg] datagram and sends it to the peer daemon's
    address from the shared topology file; inbound datagrams are decoded,
    checked against the topology (the named link must be incident and the
    claimed source must be its far end), and dispatched into
    [Node.receive]. Session datagrams implement the client protocol of
    {!Strovl.Wire.Session}.

    The protocol stack itself — hello, LSUs, routing, the five
    link service classes, dedup, delivery — is exactly the code the
    simulator runs; nothing here reimplements any of it. *)

type t

val create :
  ?config:Strovl.Node.config ->
  rt:Runtime.t ->
  topo:Topofile.t ->
  id:int ->
  unit ->
  t
(** Binds this node's UDP address from the topology file and builds the
    node with the file's graph and metrics. Raises [Unix.Unix_error] if
    the address is taken. *)

val node : t -> Strovl.Node.t
val id : t -> int

val port : t -> int
(** Actually-bound UDP port (differs from the file only when it said 0). *)

val start : t -> unit
(** Starts the protocol stack (hello, LSU refresh) and
    registers the socket with the runtime's select loop. *)

val close : t -> unit
(** Stops the node in place ({!Strovl.Node.stop}), detaches from the
    runtime and closes the socket. The runtime and other hosts on it keep
    running — this is how a test kills one daemon of an in-process
    overlay. Idempotent. *)

val stats_json : t -> string
(** One-line JSON snapshot: node id, engine clock, forwarding counters,
    live session count. Also what a [Stats_req] session frame returns. *)
