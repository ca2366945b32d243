(** Shared scenario plumbing for the experiment suite. *)

open Strovl_sim

type sim = {
  engine : Engine.t;
  net : Strovl.Net.t;
  rng : Rng.t;
}

val engine : seed:int64 -> Engine.t
(** This domain's one experiment engine, created on first use and reset
    ({!Engine.reset}) on every later call: a new run with the clock, seq
    and root RNG of [Engine.create ~seed ()]. Each row of an experiment
    runs on it, so a row's events, and through them its overlay, are
    dropped when the next row starts. *)

val release : unit -> unit
(** Forgets this domain's engine, so nothing of the last run stays
    reachable through it; the next {!engine} creates a fresh one. *)

val build :
  ?config:Strovl.Net.config ->
  seed:int64 ->
  Strovl_topo.Gen.spec ->
  sim
(** {!engine} + overlay, started and settled for 2 s. *)

val bernoulli_loss : sim -> p:float -> unit
(** Independent per-packet loss with probability [p] on every fiber
    segment. *)

val run_for : sim -> Time.t -> unit

val link_health : sim -> Strovl_obs.Health.t list
(** Every link endpoint's hello-protocol estimate ({!Strovl.Node.link_health}),
    ordered by (link, node). *)

val start_flow :
  sim ->
  src:int ->
  sport:int ->
  dst:int ->
  dport:int ->
  ?service:Strovl.Packet.service ->
  ?route:Strovl.Client.route_pref ->
  ?deadline:Time.t ->
  ?count:int ->
  interval:Time.t ->
  bytes:int ->
  unit ->
  Strovl_apps.Collect.t * Strovl_apps.Source.t
(** Starts one src→dst flow: clients at [src]:[sport] and [dst]:[dport], a
    collector on the second, and a {!Strovl_apps.Source} sending from the
    first. [service] and [route] default as in {!Strovl.Client.sender},
    [deadline] as in {!Strovl_apps.Collect.create}; without [count] the
    source sends until stopped. Returns (collector, source). *)

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
  ?drain:Time.t ->
  unit ->
  Strovl_apps.Collect.t * int
(** {!start_flow} from port [4000 + src] to port [5000 + dst], run to
    completion; returns (collector, sent). [drain] extends the run after
    the source stops (default 2 s). *)

val total_forwarded : sim -> int
(** Data packets sent onward so far, summed over every node. *)

val fail_link_everywhere : sim -> link:int -> unit
(** Fails every fiber segment directly joining the link's endpoints, on all
    ISPs — the overlay link is irrecoverably down until repaired. *)

val fail_link_on_isp : sim -> link:int -> isp:int -> unit

val current_path_links : sim -> src:int -> dst:int -> int list
(** Overlay links on the current min-latency route (node 0's view). *)
