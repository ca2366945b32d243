(** lossy-link: §II-B link-quality state.

    The connectivity graph shares "the current loss and latency
    characteristics of the overlay links", not just up/down. This
    experiment shows why: a link on the best path degrades to ~15%
    persistent loss but stays alive (hellos keep arriving), so up/down
    routing never reacts. With loss-aware routing the hello-measured loss
    rate is flooded in LSUs and the effective metric steers the flow onto
    a clean, slightly longer path.

    Ablation pair: identical scenario, routing metric = latency-only vs
    loss-inflated. *)

open Strovl_sim
module Gen = Strovl_topo.Gen

let src = 0 (* SEA *)
let dst = 8 (* MIA *)
let loss_rate = 0.15

let run_mode ~seed ~count loss_aware =
  let config =
    {
      Strovl.Net.default_config with
      Strovl.Net.node =
        { Strovl.Node.default_config with Strovl.Node.loss_aware_routing = loss_aware };
    }
  in
  let sim = Common.build ~config ~seed (Gen.us_backbone ()) in
  (* Degrade the middle link of the current best path, on every ISP. *)
  let path = Common.current_path_links sim ~src ~dst in
  let victim = List.nth path (List.length path / 2) in
  let a, b = Strovl_topo.Graph.endpoints (Strovl.Net.graph sim.net) victim in
  let underlay = Strovl.Net.underlay sim.net in
  List.iter
    (fun si ->
      Strovl_net.Underlay.set_segment_loss underlay si
        (Loss.bernoulli
           (Rng.split_named sim.rng (Printf.sprintf "deg/%d" si))
           ~p:loss_rate))
    (Strovl_net.Underlay.segments_between underlay a b);
  (* Let the hello-based loss estimate converge and flood (EWMA over 20-hello
     windows at 100ms). *)
  Common.run_for sim (Time.sec 15);
  let collect, sent =
    Common.flow_stats sim ~src ~dst ~service:Strovl.Packet.Best_effort
      ~interval:(Time.ms 10) ~count ()
  in
  let detoured =
    not (List.mem victim (Common.current_path_links sim ~src ~dst))
  in
  [
    (if loss_aware then "loss-aware metric" else "latency-only metric");
    Table.cell_pct (Strovl_apps.Collect.delivery_rate collect ~sent);
    Table.cell_ms (Strovl_apps.Collect.mean_ms collect);
    (if detoured then "yes" else "no");
  ]

let run ?(quick = false) ~seed () =
  let count = if quick then 300 else 2000 in
  let rows = List.map (run_mode ~seed ~count) [ false; true ] in
  Table.make ~id:"lossy-link"
    ~title:
      "A 15%-lossy (but alive) link on the best SEA->MIA path: routing on \
       latency vs on shared loss+latency state"
    ~header:[ "routing metric"; "delivered"; "mean latency"; "detoured" ]
    ~notes:
      [
        "paper: the connectivity graph shares loss AND latency \
         characteristics (SII-B)";
        "up/down detection never fires (hellos still get through); only \
         the shared loss estimate can trigger the detour";
      ]
    rows
