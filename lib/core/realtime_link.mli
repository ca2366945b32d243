(** NM-Strikes real-time link protocol (Figure 4, §IV-A, patent [5]).

    Guarantees complete *timeliness* rather than complete reliability: a
    packet is useful only within its deadline (≈200 ms one-way for live TV),
    so recovery must both finish in time and survive *correlated* loss
    bursts. The protocol:

    - the receiver, detecting a missing sequence number, schedules [N]
      retransmission requests spread over the recovery budget, so that not
      all requests fall inside one loss burst;
    - the sender, on the *first* request received for a packet, schedules
      [M] retransmissions, also spread out;
    - receiving the packet cancels the receiver's remaining requests;
      requests for packets the sender no longer buffers are ignored.

    Expected overhead is [1 + M·p] per packet at loss rate [p] (§IV-A),
    since a request triggers all M retransmissions.

    Spacing: the recovery budget [B] (deadline minus path latency) is
    divided so the M-th response to the N-th request can still arrive:
    request i at [i·B/(N+1)] after detection, retransmission j at
    [j·(B/(N+1))/(M+1)] after the request.

    A data packet more than {!Reliable_link.max_window} past the receiver's
    duplicate-filter floor is dropped and counted in
    [strovl_link_window_drops_total{proto="realtime"}]. *)

type t

type config = {
  n_requests : int;
  m_retrans : int;
  budget : Strovl_sim.Time.t;
      (** per-link recovery budget, e.g. 160 ms = 200 ms deadline − 40 ms
          continental propagation (§IV-A) *)
  history : int;
      (** packets the sender keeps for retransmission (ring) *)
  request_spacing : Strovl_sim.Time.t option;
      (** ablation override; default spreads requests over the budget —
          §IV-A: "the requests should be spaced out as much as possible" to
          dodge correlated loss. Set small to model naive back-to-back
          requests. *)
  retrans_spacing : Strovl_sim.Time.t option;
}

val default_config : config
(** N=3, M=3, budget 160 ms, history 4096 — the live-TV setting. *)

val create : ?config:config -> Lproto.ctx -> t
val send : t -> Packet.t -> unit
val recv : t -> Msg.t -> unit

val sent : t -> int
val retransmissions : t -> int
val requests_sent : t -> int
val delivered_up : t -> int

val wire_overhead : t -> float
(** Measured (first transmissions + retransmissions) / first transmissions,
    the paper's [1 + Mp] cost. Requests are excluded (they are tiny). *)
