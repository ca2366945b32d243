(** Per-(node, link) link-health estimate: EWMA-smoothed RTT and jitter,
    the round-trip loss the node advertises, and the liveness verdict.
    The hello protocol ([Strovl.Link_monitor]) maintains one per overlay
    link endpoint and the node holds it ([Strovl.Node.link_health]); it is
    the same estimate routing advertises, not a second one. *)

type t = {
  h_node : int;  (** observing endpoint *)
  h_link : int;  (** overlay link id *)
  mutable rtt_us : int;
      (** EWMA round-trip time (gain 1/8), seeded by {!create} *)
  mutable jitter_us : int;  (** EWMA of |RTT deviation| (gain 1/4) *)
  mutable rt_loss_pm : int;
      (** round-trip (hello/ack) loss, permille, EWMA with gain 1/4 *)
  mutable alive : bool;  (** hello-timeout liveness verdict *)
  mutable sent : int;  (** hellos sent *)
  mutable acked : int;  (** hello acks received *)
  mutable rtt_samples : int;
  s_rtt : Series.ch;  (** [strovl_health_rtt_us{link,node}] *)
  s_loss : Series.ch;  (** [strovl_health_loss_pm{link,node}], per direction *)
}

val create : node:int -> link:int -> rtt_us:int -> t
(** A live estimate whose RTT EWMA starts at [rtt_us]. Registers the two
    time-series channels in this domain's {!Series} registry. *)

val observe_rtt : t -> int -> unit
(** Folds one round-trip sample (µs): [rtt <- (7·rtt + sample)/8], so the
    first sample moves a seeded estimate by one step instead of replacing
    it (an unseeded, zero estimate takes the sample). Jitter starts with
    the second sample. *)

val fold_loss : t -> sent:int -> acked:int -> unit
(** Folds one window of [sent > 0] hellos: the sample is the share without
    an ack, [rt_loss_pm <- (3·rt_loss_pm + sample)/4]. *)

val loss_pm : t -> int
(** Per-direction loss, permille, derived from the round-trip value:
    [1 - sqrt(1 - rt_loss)]. *)

val expected_latency_us : t -> int
(** One-way latency × the retry expansion 1/(1-p)² (§IV) that
    [Strovl.Conn_graph.effective_metric] applies to the advertised loss:
    the loss-aware routing weight this endpoint's estimate gives the link. *)

val json : t -> string
(** The entry as one flat JSON object. *)
