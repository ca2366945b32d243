(** Shared scenario plumbing for the experiment suite. *)

open Strovl_sim

type sim = {
  engine : Engine.t;
  net : Strovl.Net.t;
  rng : Rng.t;
}

val build :
  ?config:Strovl.Net.config ->
  ?settle:Time.t ->
  seed:int64 ->
  Strovl_topo.Gen.spec ->
  sim
(** Engine + overlay, started and settled. *)

val bernoulli_loss : sim -> p:float -> unit
(** Independent per-packet loss with probability [p] on every fiber
    segment. *)

val gilbert_loss :
  sim -> mean_loss:float -> burst:Time.t -> unit
(** Bursty Gilbert–Elliott loss on every segment: bad-state bursts of mean
    duration [burst] dropping everything, good state clean, with state
    durations tuned so the long-run loss rate is [mean_loss]. *)

val run_for : sim -> Time.t -> unit

val link_health : sim -> Strovl_obs.Health.t list
(** Every link endpoint's hello-protocol estimate ({!Strovl.Node.link_health}),
    ordered by (link, node). *)

val flow_stats :
  sim ->
  src:int ->
  dst:int ->
  service:Strovl.Packet.service ->
  ?route:Strovl.Client.route_pref ->
  ?deadline:Time.t ->
  ?interval:Time.t ->
  ?bytes:int ->
  ?count:int ->
  ?warmup:Time.t ->
  ?drain:Time.t ->
  unit ->
  Strovl_apps.Collect.t * int
(** Runs one src→dst flow to completion and returns (collector, sent).
    [warmup] runs the source that long before resetting the measurement
    window; [drain] extends the run after the source stops (default 2 s). *)

val fail_link_everywhere : sim -> link:int -> unit
(** Fails every fiber segment directly joining the link's endpoints, on all
    ISPs — the overlay link is irrecoverably down until repaired. *)

val fail_link_on_isp : sim -> link:int -> isp:int -> unit

val current_path_links : sim -> src:int -> dst:int -> int list
(** Overlay links on the current min-latency route (node 0's view). *)
