(* Tests for the underlay (ISP backbones, failures, BGP convergence) and
   overlay-link transport (queueing, multihoming). *)

open Strovl_sim
module Gen = Strovl_topo.Gen
module Underlay = Strovl_net.Underlay
module Link = Strovl_net.Link

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let chain_underlay ?(convergence = Time.sec 40) ?(n = 6) () =
  let engine = Engine.create ~seed:1L () in
  let underlay = Underlay.create ~convergence engine (Gen.chain ~n ~hop_delay:(Time.ms 10)) in
  (engine, underlay)

let underlay_path_delay () =
  let _, u = chain_underlay () in
  Alcotest.(check (option int)) "5 hops x 10ms" (Some (Time.ms 50))
    (Underlay.path_delay u ~isp:0 ~src:0 ~dst:5);
  Alcotest.(check (option int)) "1 hop" (Some (Time.ms 10))
    (Underlay.path_delay u ~isp:0 ~src:2 ~dst:3);
  Alcotest.(check (option int)) "self" (Some 0) (Underlay.path_delay u ~isp:0 ~src:2 ~dst:2)

let underlay_transmit_delivers () =
  let engine, u = chain_underlay () in
  let arrived = ref (-1) in
  Underlay.transmit u ~isp:0 ~src:0 ~dst:5 ~deliver:(fun () -> arrived := Engine.now engine);
  Engine.run engine;
  check_int "arrives after 50ms" (Time.ms 50) !arrived

let underlay_fail_blackholes () =
  let engine, u = chain_underlay () in
  Underlay.fail_segment u 2;
  check_bool "segment down" false (Underlay.segment_up u 2);
  (* Routing view lags: still "routes" into the failure. *)
  Alcotest.(check (option int)) "stale route delay" (Some (Time.ms 50))
    (Underlay.path_delay u ~isp:0 ~src:0 ~dst:5);
  let delivered = ref false in
  Underlay.transmit u ~isp:0 ~src:0 ~dst:5 ~deliver:(fun () -> delivered := true);
  Engine.run ~until:(Time.sec 1) engine;
  check_bool "blackholed" false !delivered

let underlay_convergence_removes_route () =
  let engine, u = chain_underlay ~convergence:(Time.sec 5) () in
  Underlay.fail_segment u 2;
  Engine.run ~until:(Time.sec 6) engine;
  (* A chain has no alternate route: after convergence the path is gone. *)
  Alcotest.(check (option int)) "no route post-convergence" None
    (Underlay.path_delay u ~isp:0 ~src:0 ~dst:5);
  Underlay.repair_segment u 2;
  check_bool "segment back up" true (Underlay.segment_up u 2);
  Engine.run ~until:(Time.sec 12) engine;
  Alcotest.(check (option int)) "route re-adopted" (Some (Time.ms 50))
    (Underlay.path_delay u ~isp:0 ~src:0 ~dst:5)

let underlay_reroute_after_convergence () =
  (* Ring: failing one segment leaves the long way around. *)
  let engine = Engine.create ~seed:1L () in
  let u = Underlay.create ~convergence:(Time.sec 5) engine (Gen.ring ~n:6 ~hop_delay:(Time.ms 10)) in
  Alcotest.(check (option int)) "short way" (Some (Time.ms 10))
    (Underlay.path_delay u ~isp:0 ~src:0 ~dst:1);
  (match Underlay.routed_path u ~isp:0 ~src:0 ~dst:1 with
  | Some [ seg ] -> Underlay.fail_segment u seg
  | _ -> Alcotest.fail "expected single-segment path");
  Engine.run ~until:(Time.sec 6) engine;
  Alcotest.(check (option int)) "long way after convergence" (Some (Time.ms 50))
    (Underlay.path_delay u ~isp:0 ~src:0 ~dst:1)

let underlay_repair_cancels_pending_convergence () =
  let engine, u = chain_underlay ~convergence:(Time.sec 5) () in
  Underlay.fail_segment u 2;
  Engine.run ~until:(Time.sec 2) engine;
  Underlay.repair_segment u 2;
  Engine.run ~until:(Time.sec 10) engine;
  Alcotest.(check (option int)) "route never withdrawn" (Some (Time.ms 50))
    (Underlay.path_delay u ~isp:0 ~src:0 ~dst:5)

let underlay_segment_loss () =
  let engine, u = chain_underlay () in
  Underlay.set_segment_loss u 0 Loss.always;
  let delivered = ref false in
  Underlay.transmit u ~isp:0 ~src:0 ~dst:5 ~deliver:(fun () -> delivered := true);
  Engine.run engine;
  check_bool "lost on first segment" false !delivered

let underlay_segments_between () =
  let spec = Gen.us_backbone () in
  let engine = Engine.create () in
  let u = Underlay.create engine spec in
  (* SEA-SFO fiber exists on all three ISPs. *)
  check_int "3 parallel segments" 3 (List.length (Underlay.segments_between u 0 1))

let link_send_and_delay () =
  let engine, u = chain_underlay () in
  let link = Link.create u ~a:0 ~b:5 ~isp:0 in
  check_int "a" 0 (Link.a link);
  check_int "other" 5 (Link.other link 0);
  let arrived = ref (-1) in
  Link.send link ~src:0 ~bytes:1000 ~deliver:(fun () -> arrived := Engine.now engine);
  Engine.run engine;
  (* 50ms propagation + ~8.3us serialization of 1040B at 1Gbps. *)
  check_bool "arrives just after 50ms" true (!arrived >= Time.ms 50 && !arrived < Time.ms 51);
  check_int "sent" 1 (Link.sent link)

let link_queue_tail_drop () =
  let engine, u = chain_underlay () in
  let config =
    { Link.bandwidth_bps = 1_000_000; queue_cap = Time.ms 20; overhead_bytes = 0 }
  in
  let link = Link.create ~config u ~a:0 ~b:1 ~isp:0 in
  (* Each 1250B packet = 10ms serialization at 1Mbps; cap 20ms = 2 packets. *)
  let delivered = ref 0 in
  for _ = 1 to 10 do
    Link.send link ~src:0 ~bytes:1250 ~deliver:(fun () -> incr delivered)
  done;
  check_bool "backlog grew" true (Link.backlog link ~src:0 > 0);
  Engine.run engine;
  check_int "only queue-cap worth delivered" 2 !delivered;
  check_int "drops" 8 (Link.queue_drops link)

let link_multihoming () =
  let spec = Gen.us_backbone () in
  let engine = Engine.create () in
  let u = Underlay.create ~convergence:(Time.sec 1) engine spec in
  let link = Link.create u ~a:0 ~b:1 ~isp:0 in
  Alcotest.(check (list int)) "all isps available" [ 0; 1; 2 ] (Link.available_isps link);
  let d0 = Option.get (Link.probe_delay link) in
  Link.set_isp link 2;
  check_int "isp switched" 2 (Link.current_isp link);
  let d2 = Option.get (Link.probe_delay link) in
  check_bool "isp2 slightly longer (1.12x routes)" true (d2 > d0);
  (* Kill ISP2's SEA-SFO fiber: after convergence it detours or vanishes. *)
  List.iter
    (fun si ->
      if (Underlay.spec u).Gen.segments.(si).Gen.seg_isp = 2 then
        Underlay.fail_segment u si)
    (Underlay.segments_between u 0 1);
  Engine.run ~until:(Time.sec 2) engine;
  let d2' = Link.probe_delay link in
  check_bool "isp2 path changed or gone" true (d2' <> Some d2)

let link_offnet_pair () =
  let spec = Gen.us_backbone () in
  let engine = Engine.create ~seed:3L () in
  let u = Underlay.create engine spec in
  (* SEA-SFO: both ISP0 and ISP1 present at both ends. *)
  let link = Link.create u ~a:0 ~b:1 ~isp:0 in
  let on = Option.get (Link.probe_delay link) in
  Link.set_isp_pair link 0 1;
  Alcotest.(check (pair int int)) "pair recorded" (0, 1) (Link.current_isp_pair link);
  let off = Option.get (Link.probe_delay link) in
  check_bool "off-net includes peering penalty" true (off >= on + Time.ms 2);
  (* Traffic still flows, with the extra delay, in both directions. *)
  let t1 = ref (-1) and t2 = ref (-1) in
  Link.send link ~src:0 ~bytes:100 ~deliver:(fun () -> t1 := Engine.now engine);
  Link.send link ~src:1 ~bytes:100 ~deliver:(fun () -> t2 := Engine.now engine);
  Engine.run engine;
  check_bool "a->b delivered late" true (!t1 >= off);
  check_bool "b->a delivered late" true (!t2 >= off);
  (* Back on-net restores the direct path. *)
  Link.set_isp ((* same provider both ends *) link) 0;
  Alcotest.(check (option int)) "on-net again" (Some on) (Link.probe_delay link)

let underlay_peering_sites () =
  let spec = Gen.us_backbone () in
  let engine = Engine.create () in
  let u = Underlay.create engine spec in
  let sites = Underlay.peering_sites u ~isp_a:0 ~isp_b:1 in
  check_bool "plenty of peering sites" true (List.length sites >= 10);
  check_bool "isp0 everywhere" true (Underlay.isp_present u ~isp:0 0);
  (* ISP1 has no Phoenix fiber: PHX (3) is not in its footprint. *)
  check_bool "phx absent from isp1" false (Underlay.isp_present u ~isp:1 3);
  check_bool "phx not a 0/1 peering site" false (List.mem 3 sites)

let link_direction_independence () =
  let engine, u = chain_underlay () in
  let config = { Link.default_config with Link.bandwidth_bps = 1_000_000 } in
  let link = Link.create ~config u ~a:0 ~b:1 ~isp:0 in
  (* Saturate a->b; b->a must be unaffected. *)
  for _ = 1 to 5 do
    Link.send link ~src:0 ~bytes:1250 ~deliver:ignore
  done;
  let back = ref (-1) in
  Link.send link ~src:1 ~bytes:100 ~deliver:(fun () -> back := Engine.now engine);
  Engine.run engine;
  check_bool "reverse direction unqueued" true (!back < Time.ms 12)

(* The hello protocol's link estimate: the RTT and loss EWMAs converge to
   the configured underlay latency / injected loss, the timeout verdict
   flips when the link fails, and the RTT EWMA starts from its seed. *)

module Graph = Strovl_topo.Graph
module Health = Strovl_obs.Health
module Node = Strovl.Node
module Common = Strovl_expt.Common

let monitored_sim ?(loss = 0.) ?(hello_timeout = Time.ms 350) ~seed () =
  let config =
    {
      Strovl.Net.default_config with
      Strovl.Net.node =
        {
          Node.default_config with
          Node.hello_interval = Time.ms 50;
          hello_timeout;
        };
    }
  in
  let sim =
    Common.build ~config ~seed (Gen.chain ~n:3 ~hop_delay:(Time.ms 10))
  in
  if loss > 0. then Common.bernoulli_loss sim ~p:loss;
  sim

let monitor_health_convergence () =
  (* hello_timeout raised: at 20% loss a run of silent hellos long enough
     to time out happens now and then, legitimately (and transiently)
     flipping the verdict; this test is about the estimators, not
     liveness. *)
  let sim = monitored_sim ~loss:0.2 ~hello_timeout:(Time.sec 1) ~seed:1234L () in
  Common.run_for sim (Time.sec 30);
  let entries = Common.link_health sim in
  check_int "both ends of both chain links" 4 (List.length entries);
  List.iter
    (fun h ->
      (* One underlay hop of 10ms each way: RTT within 5% of 20ms. *)
      check_bool
        (Printf.sprintf "rtt %dus within 5%% of 20ms" h.Health.rtt_us)
        true
        (abs (h.Health.rtt_us - 20_000) <= 1_000);
      (* Injected per-traversal loss 0.2 = 200 permille per direction;
         the estimator must land within 5 points. *)
      let loss = Health.loss_pm h in
      check_bool
        (Printf.sprintf "loss %dpm within 50pm of 200" loss)
        true
        (abs (loss - 200) <= 50);
      check_bool "alive" true h.Health.alive;
      check_bool "kept sending hellos" true (h.Health.sent > 500))
    entries

let monitor_verdict_flips_on_failure () =
  let sim = monitored_sim ~seed:7L () in
  Common.run_for sim (Time.sec 5);
  List.iter
    (fun h -> check_bool "alive before failure" true h.Health.alive)
    (Common.link_health sim);
  Common.fail_link_everywhere sim ~link:0;
  (* hello_timeout = 350ms: one second is ample for the verdict. *)
  Common.run_for sim (Time.sec 1);
  List.iter
    (fun h ->
      check_bool
        (Printf.sprintf "link %d node %d verdict" h.Health.h_link
           h.Health.h_node)
        (h.Health.h_link <> 0)
        h.Health.alive)
    (Common.link_health sim)

let monitor_seeded_rtt_ewma () =
  (* Two nodes whose link is configured at 10ms but measures a 1ms round
     trip. The RTT EWMA starts at twice the configured metric, so the first
     ack moves the advertised metric one 7/8 step, not to the sample. *)
  let engine = Engine.create ~seed:1L () in
  let graph = Graph.create ~n:2 in
  let link = Graph.add_link graph 0 1 in
  let metric _ = Time.ms 10 in
  let nodes =
    Array.init 2 (fun id -> Node.create ~engine ~graph ~id ~metric ())
  in
  Array.iteri
    (fun id node ->
      let peer = nodes.(1 - id) in
      Node.attach_link node ~link ~neighbor:(1 - id)
        ~bandwidth_bps:1_000_000_000 ~xmit:(fun msg ->
          ignore
            (Engine.schedule engine ~delay:(Time.us 500) (fun () ->
                 Node.receive peer ~link msg))))
    nodes;
  Array.iter Node.start nodes;
  (* The first round trip is done; the next hello is 100ms away. *)
  Engine.run ~until:(Time.ms 2) engine;
  let h = Option.get (Node.link_health nodes.(0) ~link) in
  check_int "one ack" 1 h.Health.acked;
  let rtt = ((7 * Time.ms 20) + Time.ms 1) / 8 in
  check_int "rtt one step from the 20ms seed" rtt h.Health.rtt_us;
  let advertised = Strovl.Conn_graph.metric (Node.conn nodes.(0)) link in
  check_int "advertised metric" (rtt / 2) advertised;
  check_bool "about 0.88 of the configured metric" true
    (advertised > Time.ms 8 && advertised < Time.ms 9)

let monitor_echoes_legacy_probe () =
  (* Peers built before the hello protocol became the only monitor may
     still probe: a Probe is echoed as a Probe_ack, statelessly. *)
  let engine = Engine.create ~seed:1L () in
  let graph = Graph.create ~n:2 in
  let link = Graph.add_link graph 0 1 in
  let node = Node.create ~engine ~graph ~id:0 ~metric:(fun _ -> Time.ms 5) () in
  let sent = ref [] in
  Node.attach_link node ~link ~neighbor:1 ~bandwidth_bps:1_000_000_000
    ~xmit:(fun msg -> sent := msg :: !sent);
  Node.receive node ~link (Strovl.Msg.Probe { pseq = 42; sent_at = 1234 });
  match !sent with
  | [ Strovl.Msg.Probe_ack { pseq = 42; echo = 1234 } ] -> ()
  | _ -> Alcotest.fail "expected exactly one Probe_ack echoing the probe"

let () =
  Alcotest.run "strovl_net"
    [
      ( "underlay",
        [
          Alcotest.test_case "path delay" `Quick underlay_path_delay;
          Alcotest.test_case "transmit delivers" `Quick underlay_transmit_delivers;
          Alcotest.test_case "failure blackholes" `Quick underlay_fail_blackholes;
          Alcotest.test_case "convergence withdraws" `Quick underlay_convergence_removes_route;
          Alcotest.test_case "reroute after convergence" `Quick underlay_reroute_after_convergence;
          Alcotest.test_case "repair cancels convergence" `Quick underlay_repair_cancels_pending_convergence;
          Alcotest.test_case "segment loss" `Quick underlay_segment_loss;
          Alcotest.test_case "segments between" `Quick underlay_segments_between;
        ] );
      ( "link",
        [
          Alcotest.test_case "send and delay" `Quick link_send_and_delay;
          Alcotest.test_case "queue tail drop" `Quick link_queue_tail_drop;
          Alcotest.test_case "multihoming" `Quick link_multihoming;
          Alcotest.test_case "off-net pair" `Quick link_offnet_pair;
          Alcotest.test_case "peering sites" `Quick underlay_peering_sites;
          Alcotest.test_case "direction independence" `Quick link_direction_independence;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "health converges" `Quick monitor_health_convergence;
          Alcotest.test_case "timeout verdict" `Quick
            monitor_verdict_flips_on_failure;
          Alcotest.test_case "seeded rtt ewma" `Quick monitor_seeded_rtt_ewma;
          Alcotest.test_case "legacy probe echoed" `Quick
            monitor_echoes_legacy_probe;
        ] );
    ]
