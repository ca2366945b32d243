(** Destination reorder buffer.

    Intermediate overlay nodes "are permitted to forward packets out of
    order; the final destination is responsible for buffering received
    packets until they can be delivered in order" (§III-A). For real-time
    flows, "if a recovered packet arrives after later packets were already
    delivered, it is discarded" (§IV-A) and a missing packet is waited for
    only until its delivery deadline.

    One buffer instance serves one flow at its destination client. *)

type mode =
  | Unordered  (** deliver immediately (best-effort flows) *)
  | Ordered
      (** hold until contiguous; relies on a fully reliable service
          upstream *)
  | Deadline of Strovl_sim.Time.t
      (** in-order, but give a missing packet up when the deadline since its
          successor's origin timestamp expires; deliver late stragglers
          never *)

type t

val create :
  Strovl_sim.Engine.t -> mode -> deliver:(Packet.t -> unit) -> t
(** [deliver] is invoked exactly once per distinct in-window sequence
    number, in order for [Ordered]/[Deadline] modes. *)

val push : t -> Packet.t -> unit
(** Hand a packet (possibly duplicate, possibly out of order) to the
    buffer. *)

val pending : t -> int
(** Packets currently buffered awaiting a gap fill. *)
