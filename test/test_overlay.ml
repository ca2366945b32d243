(* Integration tests: whole overlays built with Net over the simulated
   underlay — routing, failure reaction, group state propagation, source
   routing, sessions, authentication, and the end-to-end baseline. *)

open Strovl_sim
module Gen = Strovl_topo.Gen
module P = Strovl.Packet

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let build ?config ?(spec = Gen.us_backbone ()) () =
  let engine = Engine.create ~seed:21L () in
  let net = Strovl.Net.create ?config engine spec in
  Strovl.Net.start net;
  Strovl.Net.settle net;
  (engine, net)

let run_ms engine ms = Engine.run ~until:(Time.add (Engine.now engine) (Time.ms ms)) engine

let attach net ~node ~port = Strovl.Client.attach (Strovl.Net.node net node) ~port

(* ----------------------------- basic flows --------------------------- *)

let unicast_latency_matches_path () =
  let engine, net = build () in
  let tx = attach net ~node:0 ~port:1 in
  let rx = attach net ~node:8 ~port:2 in
  let lat = ref [] in
  Strovl.Client.set_receiver rx (fun pkt ->
      lat := Time.sub (Engine.now engine) pkt.P.sent_at :: !lat);
  let s = Strovl.Client.sender tx ~dest:(P.To_node 8) ~dport:2 () in
  for _ = 1 to 20 do
    ignore (Strovl.Client.send s ());
    run_ms engine 10
  done;
  run_ms engine 500;
  check_int "all arrived" 20 (List.length !lat);
  let expected =
    Option.get
      (Strovl.Route.distance (Strovl.Node.route (Strovl.Net.node net 0)) ~dst:8)
  in
  List.iter
    (fun l ->
      check_bool "latency ~ path delay (+proc)" true
        (l >= expected && l < expected + Time.ms 2))
    !lat

let reliable_full_delivery_under_loss () =
  let engine, net = build () in
  let rng = Rng.create 5L in
  Strovl_net.Underlay.set_all_segment_loss (Strovl.Net.underlay net) (fun si _ ->
      Loss.bernoulli (Rng.split_named rng (string_of_int si)) ~p:0.03);
  let tx = attach net ~node:0 ~port:1 in
  let rx = attach net ~node:8 ~port:2 in
  let got = ref [] in
  Strovl.Client.set_receiver rx (fun pkt -> got := pkt.P.seq :: !got);
  let s = Strovl.Client.sender tx ~service:P.Reliable ~dest:(P.To_node 8) ~dport:2 () in
  for _ = 1 to 100 do
    ignore (Strovl.Client.send s ());
    run_ms engine 5
  done;
  run_ms engine 3000;
  Alcotest.(check (list int)) "complete and in order"
    (List.init 100 (fun i -> i))
    (List.rev !got)

let multicast_and_group_propagation () =
  let engine, net = build () in
  let members = [ 2; 8; 11 ] in
  let rxs =
    List.map
      (fun m ->
        let c = attach net ~node:m ~port:3 in
        Strovl.Client.join c ~group:9;
        let n = ref 0 in
        Strovl.Client.set_receiver c (fun _ -> incr n);
        (c, n))
      members
  in
  run_ms engine 500;
  (* Every node must have learned the membership by flooding. *)
  List.iter
    (fun i ->
      Alcotest.(check (list int))
        (Printf.sprintf "node %d sees members" i)
        members
        (Strovl.Group.member_nodes (Strovl.Node.group (Strovl.Net.node net i)) ~group:9))
    [ 0; 5; 6 ];
  let tx = attach net ~node:0 ~port:4 in
  let s = Strovl.Client.sender tx ~dest:(P.To_group 9) ~dport:3 () in
  for _ = 1 to 30 do
    ignore (Strovl.Client.send s ());
    run_ms engine 5
  done;
  run_ms engine 500;
  List.iter (fun (_, n) -> check_int "each member got all" 30 !n) rxs;
  (* Leaving stops delivery. *)
  let c0, n0 = List.hd rxs in
  Strovl.Client.leave c0 ~group:9;
  run_ms engine 500;
  let before = !n0 in
  for _ = 1 to 10 do
    ignore (Strovl.Client.send s ());
    run_ms engine 5
  done;
  run_ms engine 500;
  check_int "no delivery after leave" before !n0

let anycast_picks_nearest () =
  let engine, net = build () in
  (* Members at CHI(6) and BOS(11); sender at SEA(0): CHI is nearer. *)
  let c_chi = attach net ~node:6 ~port:5 in
  let c_bos = attach net ~node:11 ~port:5 in
  Strovl.Client.join c_chi ~group:12;
  Strovl.Client.join c_bos ~group:12;
  let n_chi = ref 0 and n_bos = ref 0 in
  Strovl.Client.set_receiver c_chi (fun _ -> incr n_chi);
  Strovl.Client.set_receiver c_bos (fun _ -> incr n_bos);
  run_ms engine 500;
  let tx = attach net ~node:0 ~port:6 in
  let s = Strovl.Client.sender tx ~dest:(P.Any_of_group 12) ~dport:5 () in
  for _ = 1 to 20 do
    ignore (Strovl.Client.send s ());
    run_ms engine 5
  done;
  run_ms engine 500;
  check_int "nearest got all" 20 !n_chi;
  check_int "exactly-one semantics" 0 !n_bos

let anycast_fails_over_to_next_nearest () =
  let engine, net = build () in
  let c_chi = attach net ~node:6 ~port:5 in
  let c_bos = attach net ~node:11 ~port:5 in
  Strovl.Client.join c_chi ~group:13;
  Strovl.Client.join c_bos ~group:13;
  let n_chi = ref 0 and n_bos = ref 0 in
  Strovl.Client.set_receiver c_chi (fun _ -> incr n_chi);
  Strovl.Client.set_receiver c_bos (fun _ -> incr n_bos);
  run_ms engine 500;
  let tx = attach net ~node:0 ~port:6 in
  let s = Strovl.Client.sender tx ~dest:(P.Any_of_group 13) ~dport:5 () in
  for _ = 1 to 10 do
    ignore (Strovl.Client.send s ());
    run_ms engine 5
  done;
  run_ms engine 500;
  check_int "nearest (CHI) serves" 10 !n_chi;
  (* The nearest member's node crashes: anycast must fail over to BOS once
     the hello protocol declares CHI unreachable. *)
  Strovl.Net.set_wire_tap net ~node:6 (fun ~dir:_ ~link:_ _ -> Strovl.Net.Drop);
  run_ms engine 1500;
  for _ = 1 to 10 do
    ignore (Strovl.Client.send s ());
    run_ms engine 5
  done;
  run_ms engine 500;
  check_int "failed node got nothing more" 10 !n_chi;
  check_int "next nearest took over" 10 !n_bos

let source_flooding_delivers_once () =
  let engine, net = build () in
  let tx = attach net ~node:0 ~port:7 in
  let rx = attach net ~node:8 ~port:8 in
  let got = ref 0 in
  Strovl.Client.set_receiver rx ~reorder:false (fun _ -> incr got);
  let s =
    Strovl.Client.sender tx ~route:(Strovl.Client.Scheme Strovl_topo.Dissem.Flooding)
      ~dest:(P.To_node 8) ~dport:8 ()
  in
  for _ = 1 to 10 do
    ignore (Strovl.Client.send s ());
    run_ms engine 10
  done;
  run_ms engine 500;
  check_int "de-dup: exactly once each" 10 !got

let sender_and_receiver_taps_compose () =
  (* Taps at both ends of one link: the sender's delays a data message by
     [d], the receiver's replaces it with [m]. [m] arrives once, [d] later
     than an untapped send. *)
  let engine, net = build ~spec:(Gen.chain ~n:2 ~hop_delay:(Time.ms 10)) () in
  let tx = attach net ~node:0 ~port:1 in
  let rx = attach net ~node:1 ~port:2 in
  let got = ref [] in
  Strovl.Client.set_receiver rx ~reorder:false (fun pkt ->
      got := (pkt.P.tag, Time.sub (Engine.now engine) pkt.P.sent_at) :: !got);
  let s = Strovl.Client.sender tx ~dest:(P.To_node 1) ~dport:2 () in
  ignore (Strovl.Client.send s ~tag:"plain" ());
  run_ms engine 100;
  let d = Time.ms 7 in
  Strovl.Net.set_wire_tap net ~node:0 (fun ~dir ~link:_ msg ->
      match (dir, msg) with
      | `Out, Strovl.Msg.Data _ -> Strovl.Net.Delay d
      | _ -> Strovl.Net.Pass);
  Strovl.Net.set_wire_tap net ~node:1 (fun ~dir ~link:_ msg ->
      match (dir, msg) with
      | `In, Strovl.Msg.Data ({ pkt; _ } as data) ->
        Strovl.Net.Replace
          (Strovl.Msg.Data { data with pkt = { pkt with P.tag = "m" } })
      | _ -> Strovl.Net.Pass);
  ignore (Strovl.Client.send s ~tag:"tapped" ());
  run_ms engine 100;
  match List.rev !got with
  | [ ("plain", plain); (m, tapped) ] ->
    Alcotest.(check string) "replaced by the receiver" "m" m;
    (* Up to a few µs either way: a send can queue behind a hello. *)
    check_bool "delayed by the sender" true
      (abs (Time.sub tapped (Time.add plain d)) <= Time.us 20)
  | l ->
    Alcotest.failf "expected the plain packet then m once, got %d deliveries"
      (List.length l)

(* ------------------------- failure reaction -------------------------- *)

let reroute_subsecond () =
  let engine, net = build () in
  let tx = attach net ~node:0 ~port:1 in
  let rx = attach net ~node:8 ~port:2 in
  let last = ref Time.zero and max_gap = ref 0 in
  Strovl.Client.set_receiver rx (fun _ ->
      let now = Engine.now engine in
      if !last > Time.zero then max_gap := max !max_gap (Time.sub now !last);
      last := now);
  let s = Strovl.Client.sender tx ~dest:(P.To_node 8) ~dport:2 () in
  let rec pump n =
    if n > 0 then begin
      ignore (Strovl.Client.send s ());
      run_ms engine 5;
      pump (n - 1)
    end
  in
  pump 200;
  (* Kill the first link of the current path on every ISP. *)
  let path =
    Option.get (Strovl.Route.path (Strovl.Node.route (Strovl.Net.node net 0)) ~dst:8)
  in
  let victim = List.hd path in
  let a, b = Strovl_topo.Graph.endpoints (Strovl.Net.graph net) victim in
  List.iter
    (fun si -> Strovl_net.Underlay.fail_segment (Strovl.Net.underlay net) si)
    (Strovl_net.Underlay.segments_between (Strovl.Net.underlay net) a b);
  pump 600;
  check_bool "sub-second service interruption" true (!max_gap < Time.sec 1);
  check_bool "an actual interruption happened" true (!max_gap > Time.ms 100)

let hello_detects_and_recovers () =
  let engine, net = build ~spec:(Gen.ring ~n:4 ~hop_delay:(Time.ms 10)) () in
  let node0 = Strovl.Net.node net 0 in
  (* Fail link 0 (between 0 and 1). *)
  Strovl_net.Underlay.fail_segment (Strovl.Net.underlay net) 0;
  run_ms engine 1000;
  check_bool "declared down" false (Strovl.Node.link_up_view node0 ~link:0);
  check_bool "neighbors see it too" false
    (Strovl.Conn_graph.usable (Strovl.Node.conn (Strovl.Net.node net 2)) 0);
  Strovl_net.Underlay.repair_segment (Strovl.Net.underlay net) 0;
  run_ms engine 1000;
  check_bool "declared up again" true (Strovl.Node.link_up_view node0 ~link:0)

(* --------------------------- authentication -------------------------- *)

let forged_lsu_rejected_with_auth () =
  let config = { Strovl.Net.default_config with Strovl.Net.authenticate = true } in
  let engine, net = build ~config () in
  let before =
    Strovl.Conn_graph.highest_seq
      (Strovl.Node.conn (Strovl.Net.node net 8))
      9
  in
  ignore (Strovl_attack.Scenario.forge_lsu ~net ~attacker:4 ~victim:9 ());
  run_ms engine 500;
  (* The forged LSU claimed victim 9's links were down with seq 1_000_000:
     with auth on, nobody applies it. *)
  check_int "victim's seq untouched" before
    (Strovl.Conn_graph.highest_seq (Strovl.Node.conn (Strovl.Net.node net 8)) 9);
  check_bool "victim's links still usable" true
    (Strovl.Conn_graph.usable
       (Strovl.Node.conn (Strovl.Net.node net 8))
       (List.hd (Strovl_topo.Graph.incident (Strovl.Net.graph net) 9)));
  check_bool "drops counted" true
    ((Strovl.Node.counters (Strovl.Net.node net 4)).Strovl.Node.dropped_auth > 0
    || (Strovl.Node.counters (Strovl.Net.node net 9)).Strovl.Node.dropped_auth > 0
    || (Strovl.Node.counters (Strovl.Net.node net 5)).Strovl.Node.dropped_auth > 0)

let forged_lsu_poisons_without_auth () =
  let engine, net = build () in
  ignore (Strovl_attack.Scenario.forge_lsu ~net ~attacker:4 ~victim:9 ());
  run_ms engine 500;
  (* Without authentication the forgery propagates — the vulnerability the
     paper's signed link-state updates close. *)
  check_bool "victim link believed down somewhere" true
    (not
       (Strovl.Conn_graph.usable
          (Strovl.Node.conn (Strovl.Net.node net 8))
          (List.hd (Strovl_topo.Graph.incident (Strovl.Net.graph net) 9))))

(* ------------------------------ sessions ----------------------------- *)

let session_detach_stops_delivery () =
  let engine, net = build () in
  let tx = attach net ~node:0 ~port:1 in
  let rx = attach net ~node:8 ~port:2 in
  let n = ref 0 in
  Strovl.Client.set_receiver rx (fun _ -> incr n);
  let s = Strovl.Client.sender tx ~dest:(P.To_node 8) ~dport:2 () in
  ignore (Strovl.Client.send s ());
  run_ms engine 200;
  check_int "delivered" 1 !n;
  Strovl.Client.detach rx;
  ignore (Strovl.Client.send s ());
  run_ms engine 200;
  check_int "stopped" 1 !n

let proc_delay_charged_per_hop () =
  let mk proc =
    let config =
      {
        Strovl.Net.default_config with
        Strovl.Net.node = { Strovl.Node.default_config with Strovl.Node.proc_delay = proc };
      }
    in
    let engine, net = build ~config ~spec:(Gen.chain ~n:6 ~hop_delay:(Time.ms 10)) () in
    let tx = attach net ~node:0 ~port:1 in
    let rx = attach net ~node:5 ~port:2 in
    let lat = ref 0 in
    Strovl.Client.set_receiver rx (fun pkt ->
        lat := Time.sub (Engine.now engine) pkt.P.sent_at);
    let s = Strovl.Client.sender tx ~dest:(P.To_node 5) ~dport:2 () in
    ignore (Strovl.Client.send s ());
    run_ms engine 500;
    !lat
  in
  let fast = mk Time.zero and slow = mk (Time.ms 1) in
  (* 4 intermediate forwards charged 1ms each (delivery-side processing at
     the destination is also charged). *)
  let diff = Time.sub slow fast in
  check_bool "per-hop cost visible" true (diff >= Time.ms 4 && diff <= Time.ms 6)

(* ------------------------------- e2e --------------------------------- *)

let cpu_overload_and_cluster () =
  let mk cluster =
    let config =
      {
        Strovl.Net.default_config with
        Strovl.Net.node =
          {
            Strovl.Node.default_config with
            Strovl.Node.proc_rate_pps = Some 1000;
            cluster_size = cluster;
          };
      }
    in
    let engine, net = build ~config ~spec:(Gen.chain ~n:3 ~hop_delay:(Time.ms 10)) () in
    let tx = attach net ~node:0 ~port:1 in
    let rx = attach net ~node:2 ~port:2 in
    let n = ref 0 in
    Strovl.Client.set_receiver rx (fun _ -> incr n);
    let s = Strovl.Client.sender tx ~dest:(P.To_node 2) ~dport:2 () in
    (* Offer 2000 pps for 1 second through the 1000-pps relay. *)
    for _ = 1 to 2000 do
      ignore (Strovl.Client.send s ());
      Engine.run ~until:(Time.add (Engine.now engine) (Time.us 500)) engine
    done;
    run_ms engine 1000;
    (!n, (Strovl.Node.counters (Strovl.Net.node net 1)).Strovl.Node.dropped_overload)
  in
  let got1, drops1 = mk 1 in
  let got2, drops2 = mk 2 in
  check_bool "single computer saturates ~50%" true (got1 > 800 && got1 < 1300);
  check_bool "overload drops counted" true (drops1 > 500);
  check_bool "cluster of 2 absorbs" true (got2 > 1900);
  check_int "no drops with cluster" 0 drops2

let parallel_overlays_share_underlay () =
  let engine = Engine.create ~seed:77L () in
  let spec = Gen.us_backbone () in
  let underlay = Strovl_net.Underlay.create engine spec in
  (* Two independent overlays — different configs — over one Internet. *)
  let net_a = Strovl.Net.create ~underlay engine spec in
  let auth_cfg = { Strovl.Net.default_config with Strovl.Net.authenticate = true } in
  let net_b = Strovl.Net.create ~config:auth_cfg ~underlay engine spec in
  Strovl.Net.start net_a;
  Strovl.Net.start net_b;
  Engine.run ~until:(Time.sec 2) engine;
  let flow net port =
    let tx = Strovl.Client.attach (Strovl.Net.node net 0) ~port in
    let rx = Strovl.Client.attach (Strovl.Net.node net 8) ~port in
    let n = ref 0 in
    Strovl.Client.set_receiver rx (fun _ -> incr n);
    let s = Strovl.Client.sender tx ~dest:(P.To_node 8) ~dport:port () in
    for _ = 1 to 10 do
      ignore (Strovl.Client.send s ());
      Engine.run ~until:(Time.add (Engine.now engine) (Time.ms 10)) engine
    done;
    Engine.run ~until:(Time.add (Engine.now engine) (Time.ms 500)) engine;
    !n
  in
  check_int "overlay A delivers" 10 (flow net_a 10);
  check_int "overlay B delivers" 10 (flow net_b 20);
  (* A failure in the shared Internet hits both overlays' links; each
     overlay independently reroutes (and may revive the link via another
     provider's indirect route), so both keep delivering. *)
  List.iter
    (fun si -> Strovl_net.Underlay.fail_segment underlay si)
    (Strovl_net.Underlay.segments_between underlay 0 4);
  Engine.run ~until:(Time.add (Engine.now engine) (Time.sec 2)) engine;
  check_int "overlay A survives" 10 (flow net_a 11);
  check_int "overlay B survives" 10 (flow net_b 21)

let e2e_reliable_over_lossy_path () =
  let engine = Engine.create ~seed:9L () in
  let underlay = Strovl_net.Underlay.create engine (Gen.chain ~n:6 ~hop_delay:(Time.ms 10)) in
  let rng = Rng.create 4L in
  Strovl_net.Underlay.set_all_segment_loss underlay (fun si _ ->
      Loss.bernoulli (Rng.split_named rng (string_of_int si)) ~p:0.02);
  let link = Strovl_net.Link.create underlay ~a:0 ~b:5 ~isp:0 in
  let got = ref [] in
  let e2e =
    Strovl.E2e.create engine link
      ~service:Strovl.E2e.Reliable
      ~deliver:(fun pkt -> got := pkt.P.seq :: !got)
  in
  for _ = 1 to 200 do
    Strovl.E2e.send e2e;
    Engine.run ~until:(Time.add (Engine.now engine) (Time.ms 5)) engine
  done;
  Engine.run ~until:(Time.add (Engine.now engine) (Time.sec 5)) engine;
  Alcotest.(check (list int)) "complete in order" (List.init 200 (fun i -> i)) (List.rev !got);
  check_bool "losses actually recovered" true (Strovl.E2e.retransmissions e2e > 0)

(* Every end-to-end baseline runs its link protocol over the direct path:
   lossless, each delivers every packet exactly once, and only FEC sends
   redundancy (2 parity symbols per block of 8). *)
let e2e_services_lossless () =
  let n = 64 in
  List.iter
    (fun (name, service, redundant) ->
      let engine = Engine.create ~seed:9L () in
      let underlay =
        Strovl_net.Underlay.create engine (Gen.chain ~n:6 ~hop_delay:(Time.ms 10))
      in
      let link = Strovl_net.Link.create underlay ~a:0 ~b:5 ~isp:0 in
      let got = ref [] in
      let e2e =
        Strovl.E2e.create engine link ~service
          ~deliver:(fun pkt -> got := pkt.P.seq :: !got)
      in
      for _ = 1 to n do
        Strovl.E2e.send e2e;
        Engine.run ~until:(Time.add (Engine.now engine) (Time.ms 5)) engine
      done;
      Engine.run ~until:(Time.add (Engine.now engine) (Time.sec 2)) engine;
      Alcotest.(check (list int))
        (name ^ ": each packet once")
        (List.init n Fun.id) (List.sort compare !got);
      check_int (name ^ ": redundant sends") redundant (Strovl.E2e.retransmissions e2e))
    [
      ("best effort", Strovl.E2e.Best_effort, 0);
      ("reliable", Strovl.E2e.Reliable, 0);
      ("realtime", Strovl.E2e.Realtime Strovl.Realtime_link.default_config, 0);
      ("fec", Strovl.E2e.Fec, n / 8 * 2);
    ]

let () =
  Alcotest.run "strovl_overlay"
    [
      ( "flows",
        [
          Alcotest.test_case "unicast latency" `Quick unicast_latency_matches_path;
          Alcotest.test_case "reliable under loss" `Quick reliable_full_delivery_under_loss;
          Alcotest.test_case "multicast + groups" `Quick multicast_and_group_propagation;
          Alcotest.test_case "anycast nearest" `Quick anycast_picks_nearest;
          Alcotest.test_case "anycast failover" `Quick anycast_fails_over_to_next_nearest;
          Alcotest.test_case "flooding dedup" `Quick source_flooding_delivers_once;
          Alcotest.test_case "sender and receiver taps" `Quick
            sender_and_receiver_taps_compose;
        ] );
      ( "failure",
        [
          Alcotest.test_case "sub-second reroute" `Quick reroute_subsecond;
          Alcotest.test_case "hello detect/recover" `Quick hello_detects_and_recovers;
        ] );
      ( "auth",
        [
          Alcotest.test_case "forged lsu rejected" `Quick forged_lsu_rejected_with_auth;
          Alcotest.test_case "unauthenticated poisoned" `Quick forged_lsu_poisons_without_auth;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "detach" `Quick session_detach_stops_delivery;
          Alcotest.test_case "per-hop processing" `Quick proc_delay_charged_per_hop;
        ] );
      ( "deployment",
        [
          Alcotest.test_case "cpu overload + cluster" `Quick cpu_overload_and_cluster;
          Alcotest.test_case "parallel overlays" `Quick parallel_overlays_share_underlay;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "reliable lossy path" `Quick e2e_reliable_over_lossy_path;
          Alcotest.test_case "every service, lossless" `Quick e2e_services_lossless;
        ] );
    ]
