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

val send : t -> Unix.sockaddr -> Bytes.t -> int -> bool
(** [send t addr buf len] sends the first [len] bytes of [buf] as one
    datagram, straight from the caller's buffer; otherwise as {!sendto}. *)

val recvfrom : t -> (string * Unix.sockaddr) option
(** One datagram, or [None] when nothing is ready (or a bounced-send
    [ECONNREFUSED] notification was pending instead of data). *)

val drain : t -> f:(string -> Unix.sockaddr -> unit) -> unit
(** Reads until the socket would block, passing each datagram to [f]. *)

val close : t -> unit
(** Idempotent. *)
