(* Per-(node, link) link-health estimate, fed by the hello protocol
   (Strovl.Link_monitor) and held on the node's endpoint. The arithmetic is
   the routing arithmetic: RTT is a 7/8 EWMA seeded by the caller, jitter
   an EWMA (gain 1/4) of the absolute deviation from the smoothed RTT
   (RFC 6298 style), and round-trip loss folds windowed hello/ack counts
   into a permille EWMA with gain 1/4. A hello round trip survives with
   probability (1-p)^2 for per-direction loss p, so the per-direction view
   is derived from the stored round-trip value. *)

type t = {
  h_node : int;
  h_link : int;
  mutable rtt_us : int;
  mutable jitter_us : int;
  mutable rt_loss_pm : int;
  mutable alive : bool;
  mutable sent : int;
  mutable acked : int;
  mutable rtt_samples : int;
  m_rtt : Metrics.Histogram.t;
  m_loss : Metrics.Histogram.t;
}

let create ~node ~link ~rtt_us =
  let labels = [ ("link", string_of_int link); ("node", string_of_int node) ] in
  {
    h_node = node;
    h_link = link;
    rtt_us;
    jitter_us = 0;
    rt_loss_pm = 0;
    alive = true;
    sent = 0;
    acked = 0;
    rtt_samples = 0;
    m_rtt = Metrics.histogram ~labels "strovl_health_rtt_us";
    m_loss = Metrics.histogram ~labels "strovl_health_loss_pm";
  }

let observe_rtt h sample =
  if h.rtt_samples > 0 then
    h.jitter_us <- ((3 * h.jitter_us) + abs (sample - h.rtt_us)) / 4;
  h.rtt_us <- (if h.rtt_us = 0 then sample else ((7 * h.rtt_us) + sample) / 8);
  h.rtt_samples <- h.rtt_samples + 1;
  Metrics.Histogram.observe h.m_rtt h.rtt_us

let loss_pm h =
  let survival = 1. -. (float_of_int (min 1000 h.rt_loss_pm) /. 1000.) in
  int_of_float (Float.round (1000. *. (1. -. Float.sqrt survival)))

let fold_loss h ~sent ~acked =
  let sample = 1000 * max 0 (sent - acked) / sent in
  h.rt_loss_pm <- ((3 * h.rt_loss_pm) + sample) / 4;
  Metrics.Histogram.observe h.m_loss (loss_pm h)

(* The loss-aware routing weight this endpoint's own estimate gives the
   link: one-way latency times the retry expansion 1/(1-p)^2 (paper §IV)
   that Conn_graph.effective_metric applies to the advertised loss. *)
let expected_latency_us h =
  let keep = 1000 - min 999 h.rt_loss_pm in
  max 1 (h.rtt_us / 2) * 1000 / keep * 1000 / keep

let json h =
  Printf.sprintf
    "{\"node\":%d,\"link\":%d,\"rtt_us\":%d,\"jitter_us\":%d,\"loss_pm\":%d,\
     \"rt_loss_pm\":%d,\"alive\":%b,\"sent\":%d,\"acked\":%d,\
     \"expected_latency_us\":%d}"
    h.h_node h.h_link h.rtt_us h.jitter_us (loss_pm h) h.rt_loss_pm h.alive
    h.sent h.acked (expected_latency_us h)
