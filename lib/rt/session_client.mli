(** The client side of the session interface (§II, Figure 2): one virtual
    port on a local daemon, spoken over {!Strovl.Wire.Session}.

    The core is non-blocking. Every frame the client sends is encoded
    through one reusable {!Strovl.Wire.Session_buf} and handed to the
    kernel at once ({!Udp.queue}, {!Udp.flush}). {!poll} drains
    the socket, decodes each datagram with {!Strovl.Wire.decode_frame} and
    dispatches the daemon-to-client frames: [Open_ok] for this port records
    the daemon's node, [Sent] counts an ack (and a refusal), [Deliver]
    queues a delivery for {!iter_deliveries}, and [Stats] keeps the reply
    for {!stats}. The client is bound to its daemon: a datagram from any
    other address, an undecodable one, a link frame and a client-to-daemon
    frame are dropped and counted ({!dropped}). Nothing raises on hostile
    input.

    Whoever drives the socket calls {!poll}: a command-line client after
    sleeping in [select] ({!wait_readable}), an in-process test from
    {!Runtime.watch}. The blocking helpers ({!open_session}, {!stats},
    {!until}) take that way of waiting as [wait]: [wait deadline] sleeps until
    input may have arrived, at most until [deadline] (monotonic µs, see
    {!Rt_clock.now_us}); they {!poll} after every wait. *)

type t

val create : Udp.t -> daemon:Unix.sockaddr -> sport:int -> t
(** A client of the daemon at [daemon] for virtual port [sport], over the
    given socket, which it owns from here on. Sends nothing. *)

val fd : t -> Unix.file_descr

val poll : t -> unit
(** Drains the socket and dispatches or drops each datagram, as above. *)

val wait_readable : t -> int -> unit
(** [wait_readable t deadline] sleeps in [select] until the socket is
    readable or [deadline] passes: the [wait] of a client that runs alone.
    Call it only after {!poll}, which leaves no datagram kept from a
    coalesced receive (see {!Udp.recvfrom}). *)

val until : t -> wait:(int -> unit) -> deadline:int -> (unit -> bool) -> bool
(** [until t ~wait ~deadline ready] polls, then waits and polls again
    until [ready ()] holds (true) or [deadline] passes (false). *)

(** {2 The session} *)

val open_session : t -> wait:(int -> unit) -> int option
(** Sends [Open] and waits 200 ms for the daemon's [Open_ok], 25 times at
    most (a daemon may still be booting). The daemon's node id, or [None]. *)

val join : t -> int -> unit
val leave : t -> int -> unit

val send_batch :
  t ->
  dest:Strovl.Packet.dest ->
  dport:int ->
  service:Strovl.Packet.service ->
  bytes:int ->
  tag:string ->
  first:int ->
  int ->
  unit
(** [send_batch t ... ~first n] sends [n] [Send]s with seqs
    [first .. first + n - 1] in one batch ({!Udp.flush}). *)

val sends : t -> int
(** [Send]s sent. *)

val acks : t -> int
(** [Sent] verdicts received, refusals included. *)

val refused : t -> int
(** [Sent] verdicts with [accepted = false]. *)

val delivered : t -> int
(** [Deliver]s received. *)

val iter_deliveries : t -> (int -> Strovl.Packet.t -> unit) -> unit
(** Hands each delivery not yet handed out, in arrival order, to [f] with
    the daemon's receive stamp ([at], engine µs), and forgets it. *)

val stats : t -> wait:(int -> unit) -> deadline:int -> string option
(** Sends [Stats_req] and waits for the [Stats] reply until [deadline].
    Every other frame that arrives meanwhile is dispatched as usual. *)

val close : t -> unit
(** Sends [Close] and closes the socket. Unwatch {!fd} first. *)

(** {2 Accounting} Each datagram {!poll} reads counts once, in one of
    these. *)

val frames : t -> int
(** Daemon-to-client frames from the daemon, dispatched. *)

val dropped : t -> int
(** Datagrams dropped: from another address, undecodable, a link frame,
    or a client-to-daemon frame. *)
