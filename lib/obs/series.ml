(* Windowed time-series: a view of the time axis every Metrics handle
   carries. Arming here arms that axis; a channel is one metric (name,
   labels) with the buckets it has filled. *)

type labels = Metrics.labels

type point = Metrics.point = { p_t0 : int; p_n : int; p_sum : int; p_max : int }

type ch = { ch_name : string; ch_labels : labels; ch_points : point list }

let enable ?(window = 100_000) ?(capacity = 600) () =
  if window < 1 then invalid_arg "Series.enable: window must be positive";
  if capacity < 1 then invalid_arg "Series.enable: capacity must be positive";
  Metrics.arm_series ~window ~capacity

let channels () =
  List.map
    (fun (ch_name, ch_labels, ch_points) -> { ch_name; ch_labels; ch_points })
    (Metrics.series ())

let name ch = ch.ch_name
let labels ch = ch.ch_labels
let points ch = ch.ch_points
let mean p = if p.p_n = 0 then 0. else float_of_int p.p_sum /. float_of_int p.p_n

let point_json ch p =
  Printf.sprintf
    "{\"series\":%s,\"labels\":{%s},\"t0\":%d,\"n\":%d,\"sum\":%d,\"max\":%d,\"mean\":%.3f}"
    (Export.json_str ch.ch_name)
    (String.concat ","
       (List.map
          (fun (k, v) -> Export.json_str k ^ ":" ^ Export.json_str v)
          ch.ch_labels))
    p.p_t0 p.p_n p.p_sum p.p_max (mean p)
