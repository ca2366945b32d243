(** onnet-offnet: §II-A multihoming.

    "Multihoming ... allows most traffic to avoid BGP routing by traversing
    only on-net links (i.e. overlay links that use the same provider at
    both endpoints), which generally results in better performance
    (although any combination of the available providers may be used, if
    desired)."

    An off-net overlay link must detour through a peering site where both
    providers have presence and cross the (congested) public peering. The
    experiment runs the same SEA→MIA flow with every link on-net vs every
    link off-net (provider 0 at one end, provider 1 at the other), plus a
    static analysis of per-link delay inflation. *)

open Strovl_sim
module Gen = Strovl_topo.Gen
module Graph = Strovl_topo.Graph
module Link = Strovl_net.Link
module Underlay = Strovl_net.Underlay

let src = 0 (* SEA *)
let dst = 8 (* MIA *)

let force_offnet sim =
  let g = Strovl.Net.graph sim.Common.net in
  let ok = ref 0 in
  for l = 0 to Graph.link_count g - 1 do
    let link = Strovl.Net.net_link sim.Common.net l in
    (* Only force links that CAN go off-net (both ISPs present at both
       ends). *)
    let a, b = Graph.endpoints g l in
    let u = Strovl.Net.underlay sim.Common.net in
    if
      Underlay.isp_present u ~isp:0 a
      && Underlay.isp_present u ~isp:1 b
      && Underlay.path_delay_pair u ~isp_src:0 ~isp_dst:1 ~src:a ~dst:b <> None
    then begin
      Link.set_isp_pair link 0 1;
      incr ok
    end
  done;
  !ok

let run_mode ~seed ~count offnet =
  let sim = Common.build ~seed (Gen.us_backbone ()) in
  if offnet then ignore (force_offnet sim);
  (* Let hello RTTs re-measure the (longer) off-net links so routing uses
     honest metrics. *)
  Common.run_for sim (Time.sec 3);
  let collect, sent =
    Common.flow_stats sim ~src ~dst ~service:Strovl.Packet.Best_effort
      ~interval:(Time.ms 10) ~count ()
  in
  [
    (if offnet then "all links off-net (ISP0|ISP1)" else "all links on-net");
    Table.cell_pct (Strovl_apps.Collect.delivery_rate collect ~sent);
    Table.cell_ms (Strovl_apps.Collect.mean_ms collect);
    Table.cell_ms (Strovl_apps.Collect.p99_ms collect);
  ]

let inflation_row () =
  (* Static: per-link off-net delay vs on-net delay across the topology. *)
  let engine = Common.engine ~seed:1L in
  let spec = Gen.us_backbone () in
  let u = Underlay.create engine spec in
  let g = Gen.overlay_graph spec in
  let infl = Stats.Series.create () in
  Graph.iter_links g (fun _ a b ->
      match
        ( Underlay.path_delay u ~isp:0 ~src:a ~dst:b,
          Underlay.path_delay_pair u ~isp_src:0 ~isp_dst:1 ~src:a ~dst:b )
      with
      | Some on, Some off when on > 0 ->
        Stats.Series.add infl (float_of_int off /. float_of_int on)
      | _ -> ());
  [
    "per-link delay inflation (off/on)";
    Printf.sprintf "mean %.2fx" (Stats.Series.mean infl);
    Printf.sprintf "max %.2fx" (Stats.Series.max infl);
    "";
  ]

let run ?(quick = false) ~seed () =
  let count = if quick then 300 else 2000 in
  let rows =
    List.map
      (fun row -> row ())
      [
        (fun () -> run_mode ~seed ~count false);
        (fun () -> run_mode ~seed ~count true);
        inflation_row;
      ]
  in
  Table.make ~id:"onnet-offnet"
    ~title:
      "On-net vs off-net provider combinations (SEA->MIA flow; peering = \
       +2ms, 1% loss)"
    ~header:[ "configuration"; "delivered"; "mean latency"; "p99" ]
    ~notes:
      [
        "paper: traversing only on-net links generally results in better \
         performance (SII-A)";
        "off-net links detour via a peering site and cross best-effort \
         public peering; on-net rides one provider's backbone end to end";
      ]
    rows
