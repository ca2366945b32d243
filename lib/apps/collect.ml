open Strovl_sim

module Flow_map = Strovl.Packet.Flow_map

type t = {
  engine : Engine.t;
  deadline : Time.t option;
  lat : Stats.Series.t;
  gaps : Stats.Series.t;
  mutable last_arrival : Time.t option;
  mutable n_received : int;
  mutable n_on_time : int;
  mutable n_late : int;
  mutable next_seq : int Flow_map.t; (* expected next seq per flow *)
  mutable n_holes : int;
}

let create ?deadline engine () =
  {
    engine;
    deadline;
    lat = Stats.Series.create ();
    gaps = Stats.Series.create ();
    last_arrival = None;
    n_received = 0;
    n_on_time = 0;
    n_late = 0;
    next_seq = Flow_map.empty;
    n_holes = 0;
  }

let receiver t pkt =
  let now = Engine.now t.engine in
  let latency = Time.sub now pkt.Strovl.Packet.sent_at in
  t.n_received <- t.n_received + 1;
  Stats.Series.add t.lat (Time.to_ms_float latency);
  (match t.last_arrival with
  | Some prev -> Stats.Series.add t.gaps (Time.to_ms_float (Time.sub now prev))
  | None -> ());
  t.last_arrival <- Some now;
  (match t.deadline with
  | Some d ->
    if latency <= d then t.n_on_time <- t.n_on_time + 1
    else t.n_late <- t.n_late + 1
  | None -> t.n_on_time <- t.n_on_time + 1);
  let flow = pkt.Strovl.Packet.flow in
  let expected = Option.value ~default:0 (Flow_map.find_opt flow t.next_seq) in
  let seq = pkt.Strovl.Packet.seq in
  if seq > expected then t.n_holes <- t.n_holes + (seq - expected);
  if seq >= expected then t.next_seq <- Flow_map.add flow (seq + 1) t.next_seq

let attach t client ?reorder () =
  Strovl.Client.set_receiver client ?reorder (receiver t)

let received t = t.n_received
let on_time t = t.n_on_time
let late t = t.n_late
let latencies_ms t = t.lat
let max_gap_ms t = Stats.Series.max t.gaps
let mean_ms t = Stats.Series.mean t.lat
let p99_ms t = Stats.Series.percentile t.lat 99.
let max_ms t = Stats.Series.max t.lat
let jitter_ms t = Stats.Series.jitter t.lat
let on_time_fraction t ~sent = Stats.ratio t.n_on_time (max sent 1)
let delivery_rate t ~sent = Stats.ratio t.n_received (max sent 1)
let holes t = t.n_holes

let reset_window t =
  Stats.Series.clear t.lat;
  Stats.Series.clear t.gaps;
  t.last_arrival <- None;
  t.n_received <- 0;
  t.n_on_time <- 0;
  t.n_late <- 0
