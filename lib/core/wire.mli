(** Binary wire format for overlay messages.

    The overlay daemons of a real deployment exchange these messages as UDP
    datagrams between data centers; this codec defines that format: a tag
    byte plus big-endian fields, with the source-route bitmask carried as a
    word-count-prefixed array (§II-B: one bit per overlay link) and
    application payloads represented by their length (the simulator never
    materializes payload bytes; a deployment would append them after the
    header this codec produces).

    [decode] never raises on hostile input — a compromised peer can send
    arbitrary bytes — and rejects truncated, oversized, or malformed
    messages with a descriptive error. *)

type error = string

val encode : Msg.t -> string
(** Serialized header+control bytes of the message. For [Data] the
    application payload is *not* materialized: the wire size of the full
    datagram is [String.length (encode m) + payload_bytes m]. *)

val decode : string -> (Msg.t, error) result
(** Inverse of {!encode}: [decode (encode m)] = [Ok m]. *)

val payload_bytes : Msg.t -> int
(** Application payload bytes that would follow the encoded header on the
    wire (0 for control messages). *)

val header_size : Msg.t -> int
(** Exact length of [encode m], computed arithmetically without
    serializing. The qcheck suite pins [header_size m] to
    [String.length (encode m)] for arbitrary messages. *)

val size : Msg.t -> int
(** [header_size m + payload_bytes m]: the exact datagram size, computed
    without encoding. {!Msg.bytes} is a cheap analytic approximation of
    this; the test suite keeps the two within a small tolerance. *)

(** Client ↔ daemon session protocol (the session interface of Figure 2,
    over the wall-clock runtime's UDP sockets). A client opens a virtual
    port on its local daemon, optionally joins multicast groups, and
    injects flows; the daemon answers with acceptance verdicts, delivered
    packets, and stats snapshots. Frames are carried inside {!datagram}s
    with kind [Dg_session]. *)
module Session : sig
  type frame =
    | Open of { sport : int }  (** claim virtual port [sport] *)
    | Open_ok of { node : int; sport : int }
        (** daemon's ack, naming its overlay node id *)
    | Join of { group : int; sport : int }
    | Leave of { group : int; sport : int }
    | Send of {
        sport : int;
        dest : Packet.dest;
        dport : int;
        service : Packet.service;
        seq : int;  (** client-chosen, echoed in [Sent] *)
        bytes : int;  (** payload size the daemon should originate *)
        tag : string;  (** free-form flow label, echoed in traces *)
      }
    | Sent of { sport : int; seq : int; accepted : bool }
        (** originate verdict; [accepted = false] is IT-Reliable
            backpressure *)
    | Deliver of { sport : int; at : int; pkt : Packet.t }
        (** a packet for the client's port; [at] is the daemon's receive
            stamp in engine time (µs) *)
    | Stats_req of { what : int }
    | Stats of { json : string }
    | Close of { sport : int }

  val encode : frame -> string
  val decode : string -> (frame, error) result
  (** Never raises; [decode (encode f)] = [Ok f]. *)

  val size : frame -> int
  (** Exact [String.length (encode f)], computed arithmetically. *)
end

(** {2 UDP datagram framing}

    What actually crosses a real socket: a 4-byte preamble (2-byte magic,
    {!version}, kind) and a body. Session datagrams (kind 1) carry one
    {!Session.frame} each, unbuffered. Overlay datagrams (kind 0, a {e link
    frame}) carry every message one daemon had for one overlay link in one
    runtime turn: the sending node, the link, a 16-bit message count
    n >= 1, then n encoded messages in send order. Naming the node and the
    link lets the receiving daemon dispatch into [Node.receive ~link] and
    sanity-check the sender once per frame. A sender keeps a frame within
    {!max_frame} bytes unless one message alone exceeds it. Application
    payload is, as everywhere in this reproduction, represented by its byte
    count — a deployment would append [payload_bytes] of data after each
    encoded header. *)

val version : int
(** 2. Version 1 carried exactly one message per overlay datagram and had
    no message count; a version-2 decoder rejects it. *)

val max_frame : int
(** 1472: Ethernet's 1500-byte MTU minus the IPv4 (20) and UDP (8)
    headers, so a link frame never needs IP fragmentation. *)

(** A link frame under construction in a reusable buffer: the daemon's
    per-link send buffer, encoded in place and handed to [sendto] without
    a copy. *)
module Link_frame : sig
  type t

  val create : src:int -> link:int -> t
  (** An empty frame (count 0: not yet sendable). *)

  val add : t -> Msg.t -> unit
  (** Appends one encoded message. The caller keeps the frame within
      {!max_frame} by flushing first when [length f + header_size msg]
      would pass it. *)

  val count : t -> int
  val length : t -> int

  val bytes : t -> Bytes.t
  (** The frame is the first [length f] bytes; valid until the next [add]
      or [clear]. *)

  val clear : t -> unit
  (** Back to empty, keeping the buffer. *)

  val trim : t -> unit
  (** Back to empty, giving back the buffer beyond the frame header (for a
      daemon that closes). The frame stays usable. *)
end

type datagram =
  | Dg_msg of { src : int; link : int; msg : Msg.t }
      (** a link frame of exactly one message *)
  | Dg_session of Session.frame

val encode_datagram : datagram -> string
(** A one-message [Dg_msg] encodes byte-identically to a {!Link_frame}
    holding that message alone. *)

val decode_datagram : string -> (datagram, error) result
(** Never raises on hostile input: bad magic, unknown version or kind,
    truncation, and trailing bytes all yield [Error]. A well-formed link
    frame of more than one message is an [Error] here too; daemons read
    link traffic with {!decode_frame}. *)

val datagram_size : datagram -> int
(** Exact [String.length (encode_datagram d)] without serializing. *)

type frame =
  | Fr_link of { src : int; link : int; msgs : Msg.t list }
      (** n >= 1 messages, in send order *)
  | Fr_session of Session.frame

val decode_frame : string -> (frame, error) result
(** Decodes and validates a whole datagram before returning any of it, so
    a daemon dispatches all of a link frame's messages or none. Never
    raises: a zero-message frame, an undecodable message anywhere in the
    frame, truncation and trailing bytes all yield [Error]. *)
