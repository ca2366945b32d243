(** An overlay link: the logical edge between two overlay nodes, realized
    over one ISP's backbone path (§II-A).

    Adds to {!Underlay} what the endpoints' access infrastructure
    contributes: serialization at a finite bandwidth and a finite FIFO
    output queue (tail-drop). The resource-consumption attacks of §IV-B are
    only meaningful because this queue is finite.

    A link is *multihomed*: both endpoints connect to several ISPs, so the
    link can be switched to "a different combination of ISPs" (§II-A)
    without involving Internet routing — [set_isp] takes effect on the next
    packet. We model on-net selection (same provider at both ends), which
    the paper notes is the normal preference.

    A direct Internet path used by the end-to-end baselines is the same
    object: a [Link] between two far-apart sites simply rides the ISP's
    multi-hop routed path. *)

type t

type config = { bandwidth_bps : int  (** access bandwidth *) }

val default_config : config
(** 1 Gbit/s. *)

val queue_cap : Strovl_sim.Time.t
(** 50 ms: the max queued backlog per direction, as serialization time. *)

val overhead_bytes : int
(** 40: the per-packet header overhead added on the wire. *)

val tx_time : bandwidth_bps:int -> int -> Strovl_sim.Time.t
(** [tx_time ~bandwidth_bps bytes] is the serialization time of a
    [bytes]-byte message plus {!overhead_bytes} at [bandwidth_bps], in
    µs (at least 1): what {!send} charges, and the one formula a sender
    that paces itself to the link uses. *)

val create :
  ?config:config -> Underlay.t -> a:int -> b:int -> isp:int -> t
(** A duplex link between sites [a] and [b], initially on [isp]. *)

val a : t -> int
val b : t -> int
val other : t -> int -> int
(** [other t site] is the opposite endpoint.
    @raise Invalid_argument if [site] is neither endpoint. *)

val current_isp : t -> int
val set_isp : t -> int -> unit
(** On-net: the same provider at both endpoints. *)

val set_isp_pair : t -> int -> int -> unit
(** Off-net: provider for the [a]-side and the [b]-side; traffic crosses a
    peering point between them (§II-A: "any combination of the available
    providers may be used"). Equal arguments mean on-net. *)

val current_isp_pair : t -> int * int

val available_isps : t -> int list
(** ISPs whose routing view currently connects the endpoints. *)

val probe_delay : t -> Strovl_sim.Time.t option
(** One-way delay on the current ISP's routed path, [None] when the ISP
    cannot currently connect the endpoints. *)

val send : t -> src:int -> bytes:int -> deliver:(unit -> unit) -> unit
(** Queues a packet at endpoint [src] for the opposite endpoint. [deliver]
    fires at the receiver after serialization + path delay, unless the
    packet is tail-dropped at the queue or lost in the underlay. *)

val sent : t -> int
val queue_drops : t -> int
val backlog : t -> src:int -> Strovl_sim.Time.t
(** Current queued backlog (serialization time) at an endpoint. *)
