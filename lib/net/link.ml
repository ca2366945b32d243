open Strovl_sim

type config = { bandwidth_bps : int }

let default_config = { bandwidth_bps = 1_000_000_000 }

(* Max queued backlog per direction, as serialization time. *)
let queue_cap = Time.ms 50

(* Per-packet header overhead added on the wire. *)
let overhead_bytes = 40

type half = { mutable last_departure : Time.t }

type t = {
  underlay : Underlay.t;
  cfg : config;
  ea : int;
  eb : int;
  mutable isp : int; (* provider at the a-side *)
  mutable isp_b : int; (* provider at the b-side (= isp when on-net) *)
  ab : half; (* direction a -> b *)
  ba : half;
  (* Per-link labelled metric handles, created once per link. *)
  m_tx_pkts : Strovl_obs.Metrics.Counter.t;
  m_tx_bytes : Strovl_obs.Metrics.Counter.t;
  m_qdrops : Strovl_obs.Metrics.Counter.t;
  m_backlog : Strovl_obs.Metrics.Histogram.t;
  (* Time-series twins (Strovl_obs.Series; off by default). *)
  s_tx : Strovl_obs.Series.ch;
  s_backlog : Strovl_obs.Series.ch;
  s_qdrops : Strovl_obs.Series.ch;
}

let create ?(config = default_config) underlay ~a ~b ~isp =
  if a = b then invalid_arg "Link.create: endpoints equal";
  let labels = [ ("link", Printf.sprintf "%d-%d" a b) ] in
  {
    underlay;
    cfg = config;
    ea = a;
    eb = b;
    isp;
    isp_b = isp;
    ab = { last_departure = Time.zero };
    ba = { last_departure = Time.zero };
    m_tx_pkts = Strovl_obs.Metrics.counter ~labels "strovl_link_tx_packets_total";
    m_tx_bytes = Strovl_obs.Metrics.counter ~labels "strovl_link_tx_bytes_total";
    m_qdrops = Strovl_obs.Metrics.counter ~labels "strovl_link_queue_drops_total";
    m_backlog = Strovl_obs.Metrics.histogram ~labels "strovl_link_backlog_us";
    s_tx = Strovl_obs.Series.channel ~labels "strovl_link_tx_packets";
    s_backlog = Strovl_obs.Series.channel ~labels "strovl_link_backlog_us";
    s_qdrops = Strovl_obs.Series.channel ~labels "strovl_link_queue_drops";
  }

let a t = t.ea
let b t = t.eb

let other t site =
  if site = t.ea then t.eb
  else if site = t.eb then t.ea
  else invalid_arg "Link.other: not an endpoint"

let current_isp t = t.isp

let set_isp t isp =
  t.isp <- isp;
  t.isp_b <- isp

let set_isp_pair t ia ib =
  t.isp <- ia;
  t.isp_b <- ib

let current_isp_pair t = (t.isp, t.isp_b)

let available_isps t =
  let spec = Underlay.spec t.underlay in
  let rec isps i acc =
    if i < 0 then acc
    else begin
      let acc =
        match Underlay.path_delay t.underlay ~isp:i ~src:t.ea ~dst:t.eb with
        | Some _ -> i :: acc
        | None -> acc
      in
      isps (i - 1) acc
    end
  in
  isps (spec.Strovl_topo.Gen.nisps - 1) []

let probe_delay t =
  Underlay.path_delay_pair t.underlay ~isp_src:t.isp ~isp_dst:t.isp_b ~src:t.ea
    ~dst:t.eb

let half_for t src =
  if src = t.ea then t.ab
  else if src = t.eb then t.ba
  else invalid_arg "Link.send: not an endpoint"

let tx_time ~bandwidth_bps bytes =
  let bits = (bytes + overhead_bytes) * 8 in
  Int.max 1
    (int_of_float (Float.round (float_of_int bits *. 1e6 /. float_of_int bandwidth_bps)))

let send t ~src ~bytes ~deliver =
  let h = half_for t src in
  let engine = Underlay.engine t.underlay in
  let now = Engine.now engine in
  let start = Time.max now h.last_departure in
  let departure = Time.add start (tx_time ~bandwidth_bps:t.cfg.bandwidth_bps bytes) in
  if Time.sub departure now > queue_cap then begin
    Strovl_obs.Metrics.Counter.incr t.m_qdrops;
    if Strovl_obs.Series.armed () then Strovl_obs.Series.incr t.s_qdrops;
    if Strovl_obs.Trace.armed () then
      Strovl_obs.Trace.emit ~node:src
        (Strovl_obs.Trace.Drop Strovl_obs.Trace.Queue_full)
  end
  else begin
    h.last_departure <- departure;
    Strovl_obs.Metrics.Counter.incr t.m_tx_pkts;
    Strovl_obs.Metrics.Counter.add t.m_tx_bytes (bytes + overhead_bytes);
    Strovl_obs.Metrics.Histogram.observe t.m_backlog (Time.sub start now);
    if Strovl_obs.Series.armed () then begin
      Strovl_obs.Series.incr t.s_tx;
      Strovl_obs.Series.add t.s_backlog (Time.sub start now)
    end;
    let dst = other t src in
    (* Direction determines which provider is the source side. *)
    let isp_src = if src = t.ea then t.isp else t.isp_b in
    let isp_dst = if src = t.ea then t.isp_b else t.isp in
    ignore
      (Engine.schedule_at engine ~at:departure (fun () ->
           Underlay.transmit_pair t.underlay ~isp_src ~isp_dst ~src ~dst ~deliver))
  end

let backlog t ~src =
  let h = half_for t src in
  let now = Engine.now (Underlay.engine t.underlay) in
  Time.max Time.zero (Time.sub h.last_departure now)
