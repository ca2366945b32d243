(** Periodic packet sources: the common shape of the paper's workloads.

    A source drives a {!Strovl.Client.sender} at a fixed interval (with
    optional uniform jitter), for an optional bounded count. Broadcast
    video (§III-A), monitoring streams (§III-B), and haptic feedback
    (§V-A) are all instances with different rates, sizes, and services —
    see the convenience constructors. *)

type t

val start :
  ?jitter:float ->
  ?count:int ->
  ?rng:Strovl_sim.Rng.t ->
  engine:Strovl_sim.Engine.t ->
  sender:Strovl.Client.sender ->
  interval:Strovl_sim.Time.t ->
  bytes:int ->
  unit ->
  t
(** Begins emitting immediately. [jitter] is a fraction of the interval
    (e.g. 0.1 → ±10%, requires [rng]); [count] bounds total send attempts. *)

val stop : t -> unit
val sent : t -> int
(** Packets accepted by the session. *)

val refused : t -> int
(** IT-Reliable backpressure refusals (each is retried on the next tick of
    the source — real senders block; a periodic source skips). *)

val video :
  engine:Strovl_sim.Engine.t ->
  sender:Strovl.Client.sender ->
  ?mbps:float ->
  ?count:int ->
  unit ->
  t
(** Broadcast-quality MPEG-TS-like CBR stream; default 8 Mbit/s in 1316-byte
    packets (7×188 TS cells), ≈760 packets/s. *)

val monitoring :
  engine:Strovl_sim.Engine.t ->
  sender:Strovl.Client.sender ->
  ?interval:Strovl_sim.Time.t ->
  ?bytes:int ->
  ?count:int ->
  ?rng:Strovl_sim.Rng.t ->
  unit ->
  t
(** Telemetry updates; default 400-byte reports every 100 ms (±20% jitter
    when [rng] given). *)

val haptic :
  engine:Strovl_sim.Engine.t ->
  sender:Strovl.Client.sender ->
  ?rate_hz:int ->
  ?bytes:int ->
  ?count:int ->
  unit ->
  t
(** Remote-manipulation control/feedback; default 1 kHz × 64 bytes. *)
