(** backpressure: §IV-B IT-Reliable.

    "Reliable messaging maintains storage per source-destination flow (so a
    compromised destination cannot block a source) ... When a node's
    storage for a particular flow fills, it stops accepting new messages
    for that flow, creating backpressure (potentially all the way back to
    the source)."

    SEA runs two IT-Reliable flows: one to a blackholed destination (MIA,
    compromised: swallows data, never takes responsibility) and one to a
    healthy destination (BOS). The blocked flow must fill its own per-flow
    buffers and push refusals back to the sending client, while the healthy
    flow keeps 100% goodput. *)

open Strovl_sim
module Gen = Strovl_topo.Gen

let src = 0 (* SEA *)
let blocked_dst = 8 (* MIA, blackholed *)
let healthy_dst = 11 (* BOS *)

let run ?(quick = false) ~seed () =
  let duration = if quick then Time.sec 5 else Time.sec 15 in
  let config = { Strovl.Net.default_config with Strovl.Net.authenticate = true } in
  let sim = Common.build ~config ~seed (Gen.us_backbone ()) in
  Strovl_attack.Behavior.apply sim.net ~rng:sim.rng ~node:blocked_dst
    Strovl_attack.Behavior.Blackhole;
  let start dst =
    let collect, source =
      Common.start_flow sim ~src ~sport:(800 + dst) ~dst ~dport:900
        ~service:Strovl.Packet.It_reliable ~interval:(Time.ms 20) ~bytes:600 ()
    in
    (dst, collect, source)
  in
  (* Healthy first: the start order fixes the event order DIGESTS.quick
     pins. *)
  let healthy = start healthy_dst in
  let blocked = start blocked_dst in
  Common.run_for sim duration;
  let rows =
    List.map
      (fun (dst, collect, source) ->
        let sent = Strovl_apps.Source.sent source in
        let refused = Strovl_apps.Source.refused source in
        [
          (if dst = blocked_dst then "SEA->MIA (dst compromised)"
           else "SEA->BOS (healthy)");
          string_of_int sent;
          string_of_int refused;
          Table.cell_pct (Strovl_apps.Collect.delivery_rate collect ~sent);
          Table.cell_ms (Strovl_apps.Collect.mean_ms collect);
        ])
      [ blocked; healthy ]
  in
  Table.make ~id:"backpressure"
    ~title:
      "IT-Reliable per-flow buffers: a blackholed destination stalls only \
       its own flow"
    ~header:[ "flow"; "accepted"; "refused(bp)"; "delivered"; "mean latency" ]
    ~notes:
      [
        "paper: per source-destination storage means a compromised \
         destination cannot block the source's other flows (SIV-B)";
        "refusals are the backpressure signal reaching the sending client";
        "the blocked flow's accepted-but-undelivered packets sit in \
         per-flow buffers awaiting the (never-coming) ack";
      ]
    rows
