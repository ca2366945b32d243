(* System-level stress and corner-case tests: every service class running
   simultaneously over one lossy overlay, TTL guards, signing behaviour,
   and protocol interactions that only appear under combined load. *)

open Strovl_sim
module Gen = Strovl_topo.Gen
module P = Strovl.Packet

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run_ms engine ms = Engine.run ~until:(Time.add (Engine.now engine) (Time.ms ms)) engine

(* All five service classes sharing one overlay with 1% loss everywhere:
   each class must honour its own contract simultaneously. *)
let all_services_coexist () =
  let config = { Strovl.Net.default_config with Strovl.Net.authenticate = true } in
  let engine = Engine.create ~seed:101L () in
  let net = Strovl.Net.create ~config engine (Gen.us_backbone ()) in
  Strovl.Net.start net;
  Strovl.Net.settle net;
  let rng = Rng.split_named (Engine.rng engine) "stress" in
  Strovl_net.Underlay.set_all_segment_loss (Strovl.Net.underlay net) (fun si _ ->
      Loss.bernoulli (Rng.split_named rng (string_of_int si)) ~p:0.01);
  let src = 0 and dst = 8 in
  let mk_flow i service =
    let tx = Strovl.Client.attach (Strovl.Net.node net src) ~port:(100 + i) in
    let rx = Strovl.Client.attach (Strovl.Net.node net dst) ~port:(200 + i) in
    let got = ref [] in
    Strovl.Client.set_receiver rx (fun pkt -> got := pkt.P.seq :: !got);
    let sender =
      Strovl.Client.sender tx ~service ~dest:(P.To_node dst) ~dport:(200 + i) ()
    in
    (sender, got)
  in
  let be, be_got = mk_flow 0 P.Best_effort in
  let rel, rel_got = mk_flow 1 P.Reliable in
  let rt, rt_got =
    mk_flow 2 (P.Realtime { deadline = Time.ms 200 })
  in
  let itp, itp_got = mk_flow 3 (P.It_priority 5) in
  let itr, itr_got = mk_flow 4 P.It_reliable in
  let count = 300 in
  for _ = 1 to count do
    List.iter (fun s -> ignore (Strovl.Client.send s ~bytes:500 ())) [ be; rel; rt; itp; itr ];
    run_ms engine 10
  done;
  run_ms engine 5000;
  let n l = List.length !l in
  (* Best effort: loses roughly the path loss rate, nothing recovered. *)
  check_bool "best-effort lossy but mostly there" true
    (n be_got > count * 80 / 100 && n be_got < count);
  (* Reliable: complete and in order. *)
  Alcotest.(check (list int)) "reliable complete in order"
    (List.init count (fun i -> i))
    (List.rev !rel_got);
  (* Realtime: near-complete (bounded loss), in order. *)
  check_bool "realtime near complete" true (n rt_got >= count * 97 / 100);
  check_bool "realtime ordered" true
    (let l = List.rev !rt_got in
     List.sort compare l = l);
  (* IT flows complete (It_reliable ordered; It_priority may reorder). *)
  check_bool "it-priority near complete" true (n itp_got >= count * 95 / 100);
  Alcotest.(check (list int)) "it-reliable complete in order"
    (List.init count (fun i -> i))
    (List.rev !itr_got)

(* A packet that has consumed its TTL is dropped, not forwarded forever. *)
let ttl_guard () =
  let engine = Engine.create ~seed:5L () in
  let net = Strovl.Net.create engine (Gen.chain ~n:3 ~hop_delay:(Time.ms 10)) in
  Strovl.Net.start net;
  Strovl.Net.settle net;
  let rx = Strovl.Client.attach (Strovl.Net.node net 2) ~port:2 in
  let got = ref 0 in
  Strovl.Client.set_receiver rx (fun _ -> incr got);
  let flow = { P.f_src = 0; f_sport = 1; f_dest = P.To_node 2; f_dport = 2 } in
  let fresh = P.make ~flow ~routing:P.Link_state ~service:P.Best_effort ~seq:0
      ~sent_at:(Engine.now engine) ~bytes:10 () in
  let rec exhaust p n = if n = 0 then p else exhaust (P.next_hop_copy p) (n - 1) in
  let stale = exhaust fresh P.max_hops in
  ignore (Strovl.Node.originate (Strovl.Net.node net 0) stale);
  run_ms engine 500;
  check_int "ttl-expired dropped" 0 !got;
  check_bool "counted" true
    ((Strovl.Node.counters (Strovl.Net.node net 0)).Strovl.Node.dropped_ttl > 0);
  ignore (Strovl.Node.originate (Strovl.Net.node net 0) { stale with P.seq = 1; hops = 0 });
  run_ms engine 500;
  check_int "fresh one delivered" 1 !got

(* Origination signs IT packets when a registry is configured; receivers
   drop an IT packet whose signature was stripped or corrupted in flight. *)
let it_signature_enforcement () =
  let config = { Strovl.Net.default_config with Strovl.Net.authenticate = true } in
  let engine = Engine.create ~seed:9L () in
  let net = Strovl.Net.create ~config engine (Gen.chain ~n:3 ~hop_delay:(Time.ms 10)) in
  Strovl.Net.start net;
  Strovl.Net.settle net;
  let rx = Strovl.Client.attach (Strovl.Net.node net 2) ~port:2 in
  let got = ref 0 in
  Strovl.Client.set_receiver rx (fun _ -> incr got);
  (* Node 1 strips signatures from transiting IT data. *)
  Strovl.Net.set_wire_tap net ~node:1 (fun ~dir ~link:_ msg ->
      match (dir, msg) with
      | `Out, Strovl.Msg.Data ({ pkt; _ } as d) ->
        Strovl.Net.Replace
          (Strovl.Msg.Data { d with pkt = { pkt with P.auth = None } })
      | _ -> Strovl.Net.Pass);
  let tx = Strovl.Client.attach (Strovl.Net.node net 0) ~port:1 in
  let s =
    Strovl.Client.sender tx ~service:(P.It_priority 1) ~dest:(P.To_node 2) ~dport:2 ()
  in
  for _ = 1 to 10 do
    ignore (Strovl.Client.send s ());
    run_ms engine 10
  done;
  run_ms engine 500;
  check_int "stripped signatures rejected" 0 !got;
  check_bool "auth drops counted" true
    ((Strovl.Node.counters (Strovl.Net.node net 2)).Strovl.Node.dropped_auth > 0);
  (* Best-effort is not signature-checked: same tamper leaves it alone. *)
  let s2 = Strovl.Client.sender tx ~dest:(P.To_node 2) ~dport:2 () in
  for _ = 1 to 10 do
    ignore (Strovl.Client.send s2 ());
    run_ms engine 10
  done;
  run_ms engine 500;
  check_int "best effort unaffected" 10 !got

(* Group churn under live multicast traffic: joins and leaves mid-stream
   never duplicate and never wedge the stream for remaining members. *)
let group_churn_under_traffic () =
  let engine = Engine.create ~seed:13L () in
  let net = Strovl.Net.create engine (Gen.us_backbone ()) in
  Strovl.Net.start net;
  Strovl.Net.settle net;
  let group = 66 in
  let stable = Strovl.Client.attach (Strovl.Net.node net 8) ~port:3 in
  Strovl.Client.join stable ~group;
  let stable_got = ref [] in
  Strovl.Client.set_receiver stable (fun pkt -> stable_got := pkt.P.seq :: !stable_got);
  let churner = Strovl.Client.attach (Strovl.Net.node net 11) ~port:3 in
  let churn_got = ref 0 in
  Strovl.Client.set_receiver churner (fun _ -> incr churn_got);
  run_ms engine 500;
  let tx = Strovl.Client.attach (Strovl.Net.node net 0) ~port:4 in
  let s = Strovl.Client.sender tx ~dest:(P.To_group group) ~dport:3 () in
  for i = 0 to 199 do
    if i = 50 then Strovl.Client.join churner ~group;
    if i = 150 then Strovl.Client.leave churner ~group;
    ignore (Strovl.Client.send s ());
    run_ms engine 10
  done;
  run_ms engine 1000;
  check_int "stable member got everything once" 200
    (List.length (List.sort_uniq compare !stable_got));
  check_int "no duplicates" 200 (List.length !stable_got);
  check_bool "churner got roughly its window" true
    (!churn_got > 60 && !churn_got < 140)

(* Saturating one service class must not starve control traffic: hellos and
   LSUs keep flowing, so a concurrent failure is still detected. *)
let control_plane_survives_data_flood () =
  let config =
    {
      Strovl.Net.default_config with
      Strovl.Net.link =
        { Strovl_net.Link.bandwidth_bps = 5_000_000 };
    }
  in
  let engine = Engine.create ~seed:15L () in
  let net = Strovl.Net.create ~config engine (Gen.ring ~n:4 ~hop_delay:(Time.ms 10)) in
  Strovl.Net.start net;
  Strovl.Net.settle net;
  let tx = Strovl.Client.attach (Strovl.Net.node net 0) ~port:1 in
  let s = Strovl.Client.sender tx ~dest:(P.To_node 2) ~dport:2 () in
  (* ~16 Mbit/s offered into a 5 Mbit/s link. *)
  let src =
    Strovl_apps.Source.start ~engine ~sender:s ~interval:(Time.us 600) ~bytes:1200 ()
  in
  run_ms engine 2000;
  Strovl_net.Underlay.fail_segment (Strovl.Net.underlay net) 2;
  run_ms engine 2000;
  Strovl_apps.Source.stop src;
  check_bool "failure detected despite flood" true
    (not (Strovl.Conn_graph.usable (Strovl.Node.conn (Strovl.Net.node net 0)) 2))

(* IT-Priority's drop policy: when a source's buffer overflows, "the oldest
   lowest priority message for that source" is dropped, keeping the highest
   priority messages timely (SIV-B). End to end: one source overdrives a
   slow link with mixed-priority traffic; the high-priority stream must
   survive nearly intact while low-priority absorbs the loss. *)
let priority_semantics_under_congestion () =
  let config =
    {
      Strovl.Net.default_config with
      Strovl.Net.link =
        { Strovl_net.Link.bandwidth_bps = 1_500_000 };
    }
  in
  let engine = Engine.create ~seed:19L () in
  let net = Strovl.Net.create ~config engine (Gen.chain ~n:3 ~hop_delay:(Time.ms 10)) in
  Strovl.Net.start net;
  Strovl.Net.settle net;
  let tx = Strovl.Client.attach (Strovl.Net.node net 0) ~port:1 in
  let rx = Strovl.Client.attach (Strovl.Net.node net 2) ~port:2 in
  let hi = ref 0 and lo = ref 0 in
  Strovl.Client.set_receiver rx (fun pkt ->
      match pkt.P.service with
      | P.It_priority p when p >= 9 -> incr hi
      | _ -> incr lo);
  let s_hi =
    Strovl.Client.sender tx ~service:(P.It_priority 9) ~dest:(P.To_node 2) ~dport:2 ()
  in
  let s_lo =
    Strovl.Client.sender tx ~service:(P.It_priority 1) ~dest:(P.To_node 2) ~dport:2 ()
  in
  (* Each flow offers ~0.96 Mbit/s; together 1.92 > the 1.5 Mbit/s link,
     but high priority alone fits comfortably. *)
  let n = 800 in
  for _ = 1 to n do
    ignore (Strovl.Client.send s_hi ~bytes:1200 ());
    ignore (Strovl.Client.send s_lo ~bytes:1200 ());
    run_ms engine 10
  done;
  run_ms engine 3000;
  check_bool "high priority nearly intact" true (!hi > n * 90 / 100);
  check_bool "low priority absorbed the loss" true (!lo < n * 75 / 100);
  check_bool "clear separation" true (!hi - !lo > n / 4)

(* Soak: a minute of continuous random fiber churn while a reliable flow
   runs; the flow must deliver every packet exactly once and in order, and
   the overlay must end converged (all links back up in every node's
   view). *)
let chaos_soak_reliable_exactly_once () =
  (* The invariant auditor rides along for the whole soak: continuous link
     churn is exactly where duplicate deliveries, loops or blown recovery
     budgets would slip past the end-state assertions below. *)
  Strovl_obs.Trace.enable ~capacity:(1 lsl 18) ();
  Strovl_obs.Audit.arm ();
  let engine = Engine.create ~seed:404L () in
  let net = Strovl.Net.create engine (Gen.us_backbone ()) in
  Strovl.Net.start net;
  Strovl.Net.settle net;
  let rng = Rng.split_named (Engine.rng engine) "soak" in
  let chaos =
    Strovl_attack.Chaos.start ~net ~rng ~mean_interval:(Time.ms 1500)
      ~mean_outage:(Time.ms 800) ()
  in
  let tx = Strovl.Client.attach (Strovl.Net.node net 0) ~port:1 in
  let rx = Strovl.Client.attach (Strovl.Net.node net 8) ~port:2 in
  let got = ref [] in
  Strovl.Client.set_receiver rx (fun pkt -> got := pkt.P.seq :: !got);
  let sender =
    Strovl.Client.sender tx ~service:P.Reliable ~dest:(P.To_node 8) ~dport:2 ()
  in
  let count = 3000 in
  let source =
    Strovl_apps.Source.start ~engine ~sender ~interval:(Time.ms 20) ~bytes:600
      ~count ()
  in
  run_ms engine (20 * count);
  Strovl_attack.Chaos.stop chaos;
  run_ms engine 20_000;
  check_bool "chaos actually happened" true
    (Strovl_attack.Chaos.failures_injected chaos > 10);
  check_int "sent all" count (Strovl_apps.Source.sent source);
  Alcotest.(check (list int)) "exactly once, in order"
    (List.init count (fun i -> i))
    (List.rev !got);
  (* Every node's connectivity graph ends fully converged. *)
  for v = 0 to Strovl.Net.nnodes net - 1 do
    let conn = Strovl.Node.conn (Strovl.Net.node net v) in
    for l = 0 to Strovl_topo.Graph.link_count (Strovl.Net.graph net) - 1 do
      check_bool "link back up everywhere" true (Strovl.Conn_graph.usable conn l)
    done
  done;
  let vs = Strovl_obs.Audit.finish () in
  Strovl_obs.Audit.disarm ();
  Strovl_obs.Trace.disable ();
  List.iter (fun v -> Format.eprintf "%a@." Strovl_obs.Audit.pp_violation v) vs;
  check_int "auditor clean over the chaos soak" 0 (List.length vs)

(* The flight recorder must be as deterministic as the simulation itself:
   the same seed over a chaos soak yields bit-identical event streams. A
   digest mismatch means some instrumentation site depends on wall-clock
   state or hashtable iteration order. *)
let trace_determinism () =
  let soak seed =
    Strovl_obs.Trace.enable ~capacity:(1 lsl 16) ();
    let engine = Engine.create ~seed () in
    let net = Strovl.Net.create engine (Gen.us_backbone ()) in
    Strovl.Net.start net;
    Strovl.Net.settle net;
    let rng = Rng.split_named (Engine.rng engine) "soak" in
    ignore
      (Strovl_attack.Chaos.start ~net ~rng ~mean_interval:(Time.ms 1500)
         ~mean_outage:(Time.ms 800) ());
    let tx = Strovl.Client.attach (Strovl.Net.node net 0) ~port:1 in
    let rx = Strovl.Client.attach (Strovl.Net.node net 8) ~port:2 in
    Strovl.Client.set_receiver rx ignore;
    let sender =
      Strovl.Client.sender tx ~service:P.Reliable ~dest:(P.To_node 8) ~dport:2 ()
    in
    let count = 500 in
    ignore
      (Strovl_apps.Source.start ~engine ~sender ~interval:(Time.ms 20) ~bytes:600
         ~count ());
    run_ms engine (20 * count);
    run_ms engine 10_000;
    let d = Strovl_obs.Trace.digest () in
    let n = Strovl_obs.Trace.total () in
    Strovl_obs.Trace.disable ();
    (d, n)
  in
  let d1, n1 = soak 404L in
  let d2, n2 = soak 404L in
  check_bool "trace nonempty" true (n1 > 0);
  check_int "same event count" n1 n2;
  Alcotest.(check int64) "same digest" d1 d2;
  let d3, _ = soak 405L in
  check_bool "different seed, different digest" true (d1 <> d3)

(* Drain-order determinism at the engine level: stepping the event queue
   one event at a time must visit identical timestamps across two runs at
   the same seed. This pins the (time, seq) tie-break through the pooled
   wheel/heap engine, below the trace layer — a digest can stay stable by
   luck while same-time events swap, but the step-by-step clock cannot.
   The drain is bounded (periodic protocol timers reschedule themselves
   forever, so an unbounded drain never terminates). *)
let drain_order_determinism () =
  let steps = 200 in
  let trace seed =
    let engine = Engine.create ~seed () in
    let net = Strovl.Net.create engine (Gen.us_backbone ()) in
    Strovl.Net.start net;
    Strovl.Net.settle net;
    let tx = Strovl.Client.attach (Strovl.Net.node net 0) ~port:1 in
    let rx = Strovl.Client.attach (Strovl.Net.node net 8) ~port:2 in
    Strovl.Client.set_receiver rx ignore;
    let sender =
      Strovl.Client.sender tx ~service:P.Reliable ~dest:(P.To_node 8) ~dport:2 ()
    in
    ignore
      (Strovl_apps.Source.start ~engine ~sender ~interval:(Time.ms 20)
         ~bytes:600 ~count:50 ());
    let times = Array.make steps (-1) in
    for i = 0 to steps - 1 do
      check_bool "events remain" true (Engine.step engine);
      times.(i) <- Engine.now engine
    done;
    times
  in
  let t1 = trace 404L in
  let t2 = trace 404L in
  check_bool "nondegenerate (clock advances)" true (t1.(0) < t1.(steps - 1));
  Alcotest.(check (array int)) "identical step-by-step clock" t1 t2

let chaos_respects_partition_guard () =
  (* On a chain every failure partitions: the guard must skip them all. *)
  let engine = Engine.create ~seed:405L () in
  let net = Strovl.Net.create engine (Gen.chain ~n:4 ~hop_delay:(Time.ms 10)) in
  Strovl.Net.start net;
  Strovl.Net.settle net;
  let rng = Rng.split_named (Engine.rng engine) "guard" in
  let chaos =
    Strovl_attack.Chaos.start ~net ~rng ~mean_interval:(Time.ms 200) ()
  in
  run_ms engine 10_000;
  Strovl_attack.Chaos.stop chaos;
  check_int "nothing injected on a chain" 0
    (Strovl_attack.Chaos.failures_injected chaos);
  check_bool "skips recorded" true
    (Strovl_attack.Chaos.skipped_for_partition chaos > 10)

let () =
  Alcotest.run "strovl_stress"
    [
      ( "system",
        [
          Alcotest.test_case "all services coexist" `Slow all_services_coexist;
          Alcotest.test_case "ttl guard" `Quick ttl_guard;
          Alcotest.test_case "it signature enforcement" `Quick it_signature_enforcement;
          Alcotest.test_case "group churn under traffic" `Quick group_churn_under_traffic;
          Alcotest.test_case "control plane under flood" `Quick control_plane_survives_data_flood;
          Alcotest.test_case "priority under congestion" `Quick priority_semantics_under_congestion;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "soak: reliable exactly once" `Slow chaos_soak_reliable_exactly_once;
          Alcotest.test_case "trace determinism" `Slow trace_determinism;
          Alcotest.test_case "drain order determinism" `Quick
            drain_order_determinism;
          Alcotest.test_case "partition guard" `Quick chaos_respects_partition_guard;
        ] );
    ]
