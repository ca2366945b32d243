(** Non-blocking UDP sockets for the overlay daemons.

    One socket per overlay node. Everything is tolerant of the loopback
    quirks a kill-one-daemon test exercises: sends into a dead port
    (ICMP port unreachable surfaces as [ECONNREFUSED] on Linux) and reads
    that race with readiness are swallowed, because UDP gives no delivery
    promise the protocols don't already handle — the hello protocol and
    the link services own loss. *)

type t

val bind : host:string -> port:int -> t
(** Bound, non-blocking socket with [UDP_GRO] set (see {!gro}). [port = 0]
    asks the kernel for an ephemeral port (see {!port}). Raises
    [Unix.Unix_error (EADDRINUSE, _, _)] when a live socket holds the
    address: no [SO_REUSEADDR], so a second daemon cannot silently share
    (and split) a port. *)

val fd : t -> Unix.file_descr
(** For [select]/{!Runtime.watch}. *)

val port : t -> int
(** The actually-bound local port. *)

val sendto : t -> Unix.sockaddr -> string -> bool
(** One datagram. [false] when the kernel refused without prejudice
    (buffer full, or a previous send to this peer bounced) — UDP loss,
    not an error. Raises on real misuse (bad fd, message too long). *)

(** {2 The send queue}

    A daemon sends through a per-socket queue: {!queue} copies each
    outgoing datagram in, and {!flush} hands the whole queue to the kernel
    in one [sendmmsg] call. Consecutive datagrams to the same address with
    the same length of at most {!Strovl.Wire.max_frame} bytes go out as one
    [UDP_SEGMENT] (GSO) message — at most {!max_segments} segments and
    {!max_run_bytes} bytes. A receiving {!t} gets the run back as the
    datagrams that were queued, one each (see {!drain}); the kernel splits
    it for any other receiver. Linux only.

    Errors. [EAGAIN], [ENOBUFS] and [ECONNREFUSED] on one message are UDP
    loss: that message is dropped and the rest still go out. Any other
    error raises [Unix.Unix_error] from {!flush} (or from the {!queue}
    that had to flush), after the queue has been emptied. If the kernel
    refuses a segmented message ([EINVAL], [EIO], [ENOPROTOOPT]: no
    checksum offload on the route, say), that run and the rest of the
    flush are resent as single datagrams, and the socket stops segmenting
    for good. *)

val max_queue : int
(** 128: datagrams one queue holds. *)

val max_segments : int
(** 64: segments in one [UDP_SEGMENT] message. *)

val max_run_bytes : int
(** 65507: bytes in one [UDP_SEGMENT] message, the largest IPv4 UDP
    payload. *)

val queue : t -> Unix.sockaddr -> Bytes.t -> int -> int
(** [queue t addr buf len] copies the first [len] bytes of [buf] in as one
    datagram to [addr]; [buf] is free again on return. A full queue
    ({!max_queue} datagrams, or 256 KiB) is flushed first. Returns the
    [sendmmsg] calls made, 0 unless it had to flush. Does nothing on a
    closed socket. *)

val flush : t -> int
(** Sends and empties the queue; returns the [sendmmsg] calls made: 0 for
    an empty queue, otherwise 1 unless the kernel took the messages in
    parts or the segmentation fallback ran. Allocates nothing. *)

val plan :
  segment:bool -> Unix.sockaddr array -> int array -> int -> int array -> int
(** [plan ~segment addr len n runs] splits datagrams [0 .. n-1] (datagram
    [i] goes to [addr.(i)] and is [len.(i)] bytes long) greedily, in
    order, into runs, and returns their number. Run [k] is
    [runs.(3k)], the index of its first datagram, [runs.(3k+1)], the
    length of each of its datagrams, and [runs.(3k+2)], how many
    datagrams it holds. A run has one address and one length, at most
    {!max_segments} datagrams, and more than one only when [segment] is
    [true], the length is at most {!Strovl.Wire.max_frame} and the run's
    total is at most {!max_run_bytes}. Exposed for tests. *)

(** {2 Receiving}

    {!bind} sets [UDP_GRO] on every socket, so the kernel hands a
    [UDP_SEGMENT] run to it as one coalesced receive, and reports the run's
    segment size [g] with it. A receive of [n] bytes with [0 < g < n] holds
    [ceil (n / g)] datagrams, in order: segments of [g] bytes, the last
    possibly shorter. With [g = 0] (a plain datagram, or a kernel that
    refused [UDP_GRO]) or [g >= n] it is one datagram. {!drain} and
    {!recvfrom} hand on the datagrams one by one, exactly as they were
    sent; the wire format is untouched. A receive the kernel cut short
    ([MSG_TRUNC]) is dropped whole and counted in {!truncated}. The
    receive buffer holds {!max_datagram} bytes, so the kernel never has
    to cut one short.

    Every socket of a domain receives into one shared {!max_datagram}-byte
    buffer, held by a drain while it hands on a receive's segments. A
    drain or [recvfrom] that runs inside another drain's [f] finds the
    buffer held and receives into a private one, so the outer drain's
    remaining segments are untouched. *)

val max_datagram : int
(** 65535: the receive buffer's size. No UDP payload, and so no run the
    kernel coalesces, is larger (65507 bytes over IPv4); a smaller buffer
    would lose the tail of a long run. *)

val split :
  Bytes.t ->
  int ->
  gso_size:int ->
  truncated:bool ->
  Unix.sockaddr ->
  f:(string -> Unix.sockaddr -> unit) ->
  unit
(** [split buf n ~gso_size ~truncated from ~f] passes the datagrams that
    one receive of [n] bytes into [buf] holds to [f], in order, each with
    [from], by the rule above: none when [truncated]. Exposed for
    tests. *)

val recvfrom : t -> (string * Unix.sockaddr) option
(** One datagram, or [None] when nothing is ready (or a bounced-send
    [ECONNREFUSED] notification was pending instead of data). The other
    datagrams of a coalesced receive are kept and returned by the next
    calls, or {!drain}, before anything received later. Kept datagrams do
    not make {!fd} readable: call [recvfrom] until [None] before waiting
    in [select]. *)

val drain : t -> f:(string -> Unix.sockaddr -> unit) -> unit
(** Reads until the socket would block, passing each datagram to [f]:
    first any that {!recvfrom} kept, then each receive's, in order. Makes
    no further receive once [f] closes the socket. *)

val gro : t -> bool
(** Whether the kernel took [UDP_GRO] at {!bind}. Without it every
    datagram is a receive of its own; nothing else changes. *)

val rx_batches : t -> int
(** Receives that returned data, truncated ones included, since {!bind}. *)

val truncated : t -> int
(** Receives dropped for [MSG_TRUNC] since {!bind}. *)

val close : t -> unit
(** Drops whatever is still queued or kept by {!recvfrom}, releases the
    queue's buffers and closes the socket. Idempotent. *)
