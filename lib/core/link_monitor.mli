(** The hello protocol: the node's one link monitor (§II-B, Connectivity
    Graph Maintenance).

    One monitor runs per overlay-link endpoint. Every [interval] it sends a
    timestamped [Msg.Hello]; the peer echoes it as a [Msg.Hello_ack]. The
    round trips feed the endpoint's {!Strovl_obs.Health.t}: a 7/8 RTT EWMA
    seeded by the caller, and a round-trip loss sample every 20 hellos
    folded with gain 1/4. Any hello from the peer also counts as evidence
    that the link is alive; silence beyond [timeout] declares it dead.

    The monitor decides nothing about routing. It reports to the node's
    [notify] callback, which floods metric and loss changes, takes a dead
    link down and rotates its ISP. A legacy [Msg.Probe] is echoed as a
    [Msg.Probe_ack] with no state, so peers that still probe keep
    interoperating. *)

type event =
  | Rtt of int  (** a new smoothed RTT (µs) after a hello ack *)
  | Loss of int  (** a new round-trip loss (permille) after a window *)
  | Up  (** the peer was heard again after the link was declared dead *)
  | Down  (** silence beyond [timeout]: the link is declared dead *)
  | Suspect
      (** ask the network to try another ISP: right after [Down], then
          again every [timeout] while the link stays silent *)

type t

val create :
  engine:Strovl_sim.Engine.t ->
  xmit:(Msg.t -> unit) ->
  interval:Strovl_sim.Time.t ->
  timeout:Strovl_sim.Time.t ->
  health:Strovl_obs.Health.t ->
  notify:(event -> unit) ->
  t

val health : t -> Strovl_obs.Health.t

val recv : t -> Msg.t -> unit
(** Feeds a [Hello], [Hello_ack] or [Probe] from the peer; other messages
    (and an unsolicited [Probe_ack]) are ignored. *)

val start : t -> unit
(** Marks the peer heard now and begins the hello loop. Call once. *)

val stop : t -> unit
(** Ends the hello loop for good: the pending tick fires as a no-op. *)
