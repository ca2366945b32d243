(** Non-blocking UDP sockets for the overlay daemons.

    One socket per overlay node. Everything is tolerant of the loopback
    quirks a kill-one-daemon test exercises: sends into a dead port
    (ICMP port unreachable surfaces as [ECONNREFUSED] on Linux) and reads
    that race with readiness are swallowed, because UDP gives no delivery
    promise the protocols don't already handle — the hello protocol and
    the link services own loss. *)

type t

val bind : host:string -> port:int -> t
(** Bound, non-blocking socket. [port = 0] asks the kernel for an
    ephemeral port (see {!port}). Raises [Unix.Unix_error (EADDRINUSE, _, _)]
    when a live socket holds the address: no [SO_REUSEADDR], so a second
    daemon cannot silently share (and split) a port. *)

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
    {!max_run_bytes} bytes — which the kernel splits back into one
    datagram per segment: what arrives is exactly what was queued, one
    datagram each, so receivers need no change. Linux only.

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

val recvfrom : t -> (string * Unix.sockaddr) option
(** One datagram, or [None] when nothing is ready (or a bounced-send
    [ECONNREFUSED] notification was pending instead of data). *)

val drain : t -> f:(string -> Unix.sockaddr -> unit) -> unit
(** Reads until the socket would block, passing each datagram to [f]. *)

val close : t -> unit
(** Drops whatever is still queued, releases the queue's buffers and
    closes the socket. Idempotent. *)
