(** One live overlay daemon: a {!Strovl.Node} wired to a real UDP socket.

    This is {!Strovl.Net}'s role under the wall-clock runtime — the glue
    between the transport seam and the wire. Each incident overlay link is
    attached through {!Strovl.Transport} with an [xmit] that appends the
    message to the link's {!Strovl.Wire.Link_frame}. Every outgoing
    datagram goes through the socket's send queue ({!Udp.queue}): session
    replies ([Open_ok], [Sent], [Deliver], [Stats]) as they are made, and
    link frames when one zero-delay engine event per runtime turn queues
    every non-empty frame — one datagram to the peer daemon's address from
    the shared topology file — and then sends the whole queue in one batch
    ({!Udp.flush}). A frame is queued early when the next message would
    push it past {!Strovl.Wire.max_frame}. The event always fires before
    the runtime next sleeps in [select], so no link message or session
    reply is held across a sleep. Inbound datagrams are decoded and
    validated whole ({!Strovl.Wire.decode_frame}), checked against the
    topology (the named link must be incident and the claimed source must
    be its far end), and their messages dispatched into [Node.receive] in
    order. Session datagrams implement the client protocol of
    {!Strovl.Wire.Session}, one frame per datagram. Once a client has
    opened a session, only that client's address may [Send], [Join],
    [Leave] or [Close] on it; the same frames from any other address are
    counted as misdirected and ignored.

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
    runtime, drops unsent link frames, the send queue and their buffers,
    and closes the socket; the turn's pending flush then sends nothing. The runtime and other hosts on it keep
    running — this is how a test kills one daemon of an in-process
    overlay. Idempotent. *)

val handle_datagram : t -> string -> Unix.sockaddr -> unit
(** One received datagram from the given source, as the select loop hands
    each on: decoded, validated and dispatched, or counted as bad or
    misdirected. Never raises on hostile input. Exposed for tests. *)

val stats_json : t -> string
(** One-line JSON snapshot: node id, engine clock, forwarding counters,
    datagrams received ([rx_datagrams], one per segment of a coalesced
    receive), receive calls that returned data ([rx_batches]), datagrams
    sent and [sendmmsg] calls ([tx_datagrams], [tx_batches]; each segment
    of a segmented send counts as one datagram), overlay messages the sent
    link frames carried ([tx_link_msgs]), undecodable datagrams and
    truncated receives ([bad_datagrams]), misdirected frames, live session
    count. Also what a [Stats_req] session frame returns. *)
