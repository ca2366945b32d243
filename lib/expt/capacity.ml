(** node-capacity: §II-D cost and deployment.

    "Depending on the traffic load, a single computer may not be able to
    provide the necessary processing at line speed. To deal with this
    issue, additional processing resources can be deployed as clusters of
    computers running in the data centers."

    A relay node with a finite CPU (5,000 packets/s per computer) forwards
    an offered load swept past its capacity; its data-center cluster is
    then grown. Goodput should track min(offered, 5000 × cluster) and
    latency should stay flat once the cluster absorbs the load. *)

open Strovl_sim
module Gen = Strovl_topo.Gen

let per_computer_pps = 5_000

let run_case ~seed ~duration ~offered_pps ~cluster =
  let config =
    {
      Strovl.Net.default_config with
      Strovl.Net.node =
        {
          Strovl.Node.default_config with
          Strovl.Node.proc_rate_pps = Some per_computer_pps;
          cluster_size = cluster;
        };
    }
  in
  let sim = Common.build ~config ~seed (Gen.chain ~n:3 ~hop_delay:(Time.ms 10)) in
  let collect, source =
    Common.start_flow sim ~src:0 ~sport:1 ~dst:2 ~dport:2
      ~interval:(max 1 (1_000_000 / offered_pps))
      ~bytes:400 ()
  in
  Common.run_for sim duration;
  Strovl_apps.Source.stop source;
  Common.run_for sim (Time.sec 1);
  let sent = Strovl_apps.Source.sent source in
  let relay = Strovl.Node.counters (Strovl.Net.node sim.net 1) in
  [
    string_of_int offered_pps;
    string_of_int cluster;
    Table.cell_pct (Strovl_apps.Collect.delivery_rate collect ~sent);
    Table.cell_ms (Strovl_apps.Collect.mean_ms collect);
    string_of_int relay.Strovl.Node.dropped_overload;
  ]

let run ?(quick = false) ~seed () =
  let duration = if quick then Time.sec 2 else Time.sec 5 in
  let cases =
    if quick then [ (4_000, 1); (12_000, 1); (12_000, 4) ]
    else
      [
        (4_000, 1);
        (8_000, 1);
        (8_000, 2);
        (16_000, 1);
        (16_000, 2);
        (16_000, 4);
      ]
  in
  let rows =
    List.map (fun (pps, cluster) -> run_case ~seed ~duration ~offered_pps:pps ~cluster) cases
  in
  Table.make ~id:"node-capacity"
    ~title:
      (Printf.sprintf
         "Relay node at %d pkt/s per computer: offered load vs cluster size \
          (SII-D)"
         per_computer_pps)
    ~header:[ "offered pps"; "cluster"; "delivered"; "mean latency"; "cpu drops" ]
    ~notes:
      [
        "paper: clusters of computers absorb line-speed processing (SII-D)";
        "goodput ~ min(offered, rate x cluster); latency stays flat once \
         the cluster absorbs the load";
      ]
    rows
