(** Per-flow receiver-side measurement.

    Plugs into a {!Strovl.Client} receive callback and records what the
    paper's applications care about: delivery latency and jitter (video,
    §III-A), on-time fraction against a deadline (live TV §IV-A, remote
    manipulation §V-A), delivery gaps (service-interruption measurement for
    the rerouting comparison, §II-A), and sequence holes. *)

type t

val create :
  ?deadline:Strovl_sim.Time.t -> Strovl_sim.Engine.t -> unit -> t
(** With [deadline], each packet counts as on-time iff it is handed to the
    application within the deadline of its origin timestamp. *)

val receiver : t -> Strovl.Packet.t -> unit
(** The callback to register with [Client.set_receiver]. *)

val attach : t -> Strovl.Client.t -> ?reorder:bool -> unit -> unit
(** Convenience: registers {!receiver} on the client. *)

val received : t -> int
val on_time : t -> int
val late : t -> int

val latencies_ms : t -> Strovl_sim.Stats.Series.t
(** Origin-to-application latency of every delivered packet, ms. *)

val max_gap_ms : t -> float
(** Largest interarrival gap, ms — the max gap during a failure is the
    measured service interruption. *)

val mean_ms : t -> float
val p99_ms : t -> float
val max_ms : t -> float
val jitter_ms : t -> float

val on_time_fraction : t -> sent:int -> float
(** On-time deliveries over packets sent (missing packets count against). *)

val delivery_rate : t -> sent:int -> float

val holes : t -> int
(** Distinct sequence numbers skipped (per flow, summed). *)

val reset_window : t -> unit
(** Clears latency/gap series and counters (sequence tracking is kept);
    useful to measure only a post-warm-up window. *)
