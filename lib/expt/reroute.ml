(** reroute-bgp: §II-A.

    "The ability to route around problems at a sub-second scale ... in
    contrast to the 40 seconds to minutes that BGP may take to converge."

    A continuous SEA→MIA flow; at a known instant a fiber segment on the
    path fails. Three recoveries are measured by the longest delivery gap:

    - overlay, single-ISP fault: hellos time out (~350 ms), the link is
      advertised down (LSU flood) while multihoming rotates the link to
      another provider (§II-A);
    - overlay, all-ISP link fault: same detection, repaired purely by
      rerouting around the dead link;
    - direct Internet path: packets blackhole until the BGP convergence
      timer (40 s) lets the ISP's routing find the way around. *)

open Strovl_sim
module Gen = Strovl_topo.Gen

let src = 0 (* SEA *)
let dst = 8 (* MIA *)
let interval = Time.ms 5

let overlay_scenario ?(hello_timeout = Strovl.Node.default_config.Strovl.Node.hello_timeout)
    ~seed ~all_isps () =
  let config =
    {
      Strovl.Net.default_config with
      Strovl.Net.node =
        { Strovl.Node.default_config with Strovl.Node.hello_timeout };
    }
  in
  let sim = Common.build ~config ~seed (Gen.us_backbone ()) in
  let path = Common.current_path_links sim ~src ~dst in
  let victim = List.nth path (List.length path / 2) in
  let collect, _source =
    Common.start_flow sim ~src ~sport:100 ~dst ~dport:200
      ~service:Strovl.Packet.Best_effort ~interval ~bytes:400 ()
  in
  Common.run_for sim (Time.sec 5);
  Strovl_apps.Collect.reset_window collect;
  if all_isps then Common.fail_link_everywhere sim ~link:victim
  else begin
    let isp = Strovl_net.Link.current_isp (Strovl.Net.net_link sim.net victim) in
    Common.fail_link_on_isp sim ~link:victim ~isp
  end;
  Common.run_for sim (Time.sec 10);
  Strovl_apps.Collect.max_gap_ms collect

let bgp_scenario ~seed ~convergence =
  let engine = Common.engine ~seed in
  let spec = Gen.us_backbone () in
  let underlay = Strovl_net.Underlay.create ~convergence engine spec in
  let link = Strovl_net.Link.create underlay ~a:src ~b:dst ~isp:0 in
  let collect = Strovl_apps.Collect.create engine () in
  let seq = ref 0 in
  let flow =
    { Strovl.Packet.f_src = src; f_sport = 0; f_dest = Strovl.Packet.To_node dst; f_dport = 0 }
  in
  let rec pump () =
    let pkt =
      Strovl.Packet.make ~flow ~routing:Strovl.Packet.Link_state
        ~service:Strovl.Packet.Best_effort ~seq:!seq ~sent_at:(Engine.now engine)
        ~bytes:400 ()
    in
    incr seq;
    Strovl_net.Link.send link ~src ~bytes:440 ~deliver:(fun () ->
        Strovl_apps.Collect.receiver collect pkt);
    ignore (Engine.schedule engine ~delay:interval pump)
  in
  pump ();
  Engine.run ~until:(Time.sec 5) engine;
  Strovl_apps.Collect.reset_window collect;
  (* Fail a mid-path segment actually used by the routed Internet path. *)
  (match Strovl_net.Underlay.routed_path underlay ~isp:0 ~src ~dst with
  | Some segs when segs <> [] ->
    Strovl_net.Underlay.fail_segment underlay (List.nth segs (List.length segs / 2))
  | _ -> ());
  Engine.run ~until:(Time.add (Time.sec 10) convergence) engine;
  Strovl_apps.Collect.max_gap_ms collect

let run ?(quick = false) ~seed () =
  let convergence = if quick then Time.sec 8 else Time.sec 40 in
  (* Ablation: the detection knob behind "sub-second" — a faster hello
     timeout buys a faster reroute, bounded below by the flood+recompute. *)
  let timeout_rows =
    if quick then []
    else
      List.map
        (fun ht ->
          ( Printf.sprintf "overlay reroute (hello timeout %dms)" (ht / 1000),
            fun () -> overlay_scenario ~hello_timeout:ht ~seed ~all_isps:true () ))
        [ Time.ms 150; Time.ms 700 ]
  in
  let rows =
    List.map
      (fun (name, max_gap) -> [ name; Table.cell_ms (max_gap ()) ])
      ([
         ( "overlay multihoming (1-ISP fault)",
           fun () -> overlay_scenario ~seed ~all_isps:false () );
         ( "overlay reroute (all-ISP link fault)",
           fun () -> overlay_scenario ~seed ~all_isps:true () );
       ]
      @ timeout_rows
      @ [
          ( Printf.sprintf "direct IP (BGP convergence %ds)"
              (convergence / 1_000_000),
            fun () -> bgp_scenario ~seed ~convergence );
        ])
  in
  Table.make ~id:"reroute-bgp"
    ~title:"Service interruption after a fiber-segment failure (SEA->MIA flow)"
    ~header:[ "recovery mechanism"; "interruption" ]
    ~notes:
      [
        "paper: overlay reroutes sub-second; BGP takes 40s to minutes (SII-A)";
        "overlay detection = hello timeout (default 350ms) + LSU flood";
        "the ablation rows sweep the hello timeout: reroute time tracks \
         detection, not routing computation";
      ]
    rows
