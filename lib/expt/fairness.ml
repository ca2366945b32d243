(** fairness: §IV-B resource-consumption attack.

    Three correct sources (SEA, SFO, LAX) send modest It-Priority telemetry
    to MIA while a compromised source at DEN floods the shared bottleneck
    at up to line rate. With the baseline FIFO forwarding the flood drowns
    the correct traffic; with the paper's per-source buffers and
    round-robin scheduling "a compromised source cannot consume the
    resources of other sources to prevent their messages from being
    forwarded". Links are 10 Mbit/s so the contention is real. *)

open Strovl_sim
module Gen = Strovl_topo.Gen

let correct_sources = [ 0; 1; 2 ] (* SEA SFO LAX *)
let attacker = 4 (* DEN *)
let sink = 8 (* MIA *)

let config ~mode =
  {
    Strovl.Net.default_config with
    Strovl.Net.link = { Strovl_net.Link.bandwidth_bps = 10_000_000 };
    node = { Strovl.Node.default_config with Strovl.Node.it_priority = mode };
  }

let schedulers =
  [
    ("fifo", Strovl.It_priority.Fifo);
    ("round-robin", Strovl.It_priority.Round_robin);
  ]

let run_case ~seed ~duration ~attack_pps (mode_name, mode) =
  let sim = Common.build ~config:(config ~mode) ~seed (Gen.us_backbone ()) in
  (* Correct sources: 100 pps x 400 B = 320 kbit/s each. *)
  let flows =
    List.map
      (fun s ->
        let collect, src =
          Common.start_flow sim ~src:s ~sport:600 ~dst:sink ~dport:(700 + s)
            ~service:(Strovl.Packet.It_priority 1) ~interval:(Time.ms 10)
            ~bytes:400 ()
        in
        (s, collect, src))
      correct_sources
  in
  if attack_pps > 0 then
    ignore
      (Strovl_attack.Scenario.flooder ~net:sim.net ~node:attacker ~port:601
         ~dest:(Strovl.Packet.To_node sink) ~dport:999
         ~service:(Strovl.Packet.It_priority 1) ~rate_pps:attack_pps
         ~bytes:1200);
  Common.run_for sim duration;
  List.map
    (fun (s, collect, src) ->
      let sent = Strovl_apps.Source.sent src in
      [
        string_of_int attack_pps;
        mode_name;
        Printf.sprintf "node%d" s;
        Table.cell_pct (Strovl_apps.Collect.delivery_rate collect ~sent);
        Table.cell_ms (Strovl_apps.Collect.mean_ms collect);
      ])
    flows

let run ?(quick = false) ~seed () =
  let duration = if quick then Time.sec 3 else Time.sec 10 in
  let rates = if quick then [ 0; 5000 ] else [ 0; 1000; 5000; 20000 ] in
  let rows =
    List.concat_map
      (fun attack_pps ->
        List.concat_map (run_case ~seed ~duration ~attack_pps) schedulers)
      rates
  in
  Table.make ~id:"fairness"
    ~title:
      "Correct-source goodput under a flooding compromised source (10 \
       Mbit/s links, IT-Priority)"
    ~header:[ "attack pps"; "scheduler"; "source"; "delivered"; "mean latency" ]
    ~notes:
      [
        "paper: fair buffer allocation + round robin stop resource \
         consumption attacks (SIV-B)";
        "attacker floods 1200B packets from DEN toward MIA; correct \
         sources need 320 kbit/s each";
      ]
    rows
