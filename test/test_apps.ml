(* Tests for the workload/measurement library. *)

open Strovl_sim
module Gen = Strovl_topo.Gen
module P = Strovl.Packet

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-6))

let flow = { P.f_src = 0; f_sport = 1; f_dest = P.To_node 1; f_dport = 2 }

let fake_packet engine ~seq ~sent_at =
  P.make ~flow ~routing:P.Link_state ~service:P.Best_effort ~seq ~sent_at
    ~bytes:100 ()
  |> fun p ->
  ignore engine;
  p

(* ------------------------------ Collect ------------------------------ *)

let collect_latency_and_deadline () =
  let engine = Engine.create () in
  let c = Strovl_apps.Collect.create ~deadline:(Time.ms 50) engine () in
  (* Packet sent at 0, "received" when clock = 30ms: on time. *)
  ignore (Engine.schedule engine ~delay:(Time.ms 30) (fun () ->
      Strovl_apps.Collect.receiver c (fake_packet engine ~seq:0 ~sent_at:0)));
  ignore (Engine.schedule engine ~delay:(Time.ms 100) (fun () ->
      Strovl_apps.Collect.receiver c (fake_packet engine ~seq:1 ~sent_at:0)));
  Engine.run engine;
  check_int "received" 2 (Strovl_apps.Collect.received c);
  check_int "on time" 1 (Strovl_apps.Collect.on_time c);
  check_int "late" 1 (Strovl_apps.Collect.late c);
  check_float "mean ms" 65. (Strovl_apps.Collect.mean_ms c);
  check_float "max gap = 70ms" 70. (Strovl_apps.Collect.max_gap_ms c);
  check_float "on-time fraction vs sent" 0.25
    (Strovl_apps.Collect.on_time_fraction c ~sent:4);
  check_float "delivery rate" 0.5 (Strovl_apps.Collect.delivery_rate c ~sent:4)

let collect_holes () =
  let engine = Engine.create () in
  let c = Strovl_apps.Collect.create engine () in
  List.iter
    (fun s -> Strovl_apps.Collect.receiver c (fake_packet engine ~seq:s ~sent_at:0))
    [ 0; 1; 4; 5 ];
  check_int "two holes (2,3)" 2 (Strovl_apps.Collect.holes c)

let collect_reset_window () =
  let engine = Engine.create () in
  let c = Strovl_apps.Collect.create engine () in
  Strovl_apps.Collect.receiver c (fake_packet engine ~seq:0 ~sent_at:0);
  Strovl_apps.Collect.reset_window c;
  check_int "counters cleared" 0 (Strovl_apps.Collect.received c);
  check_int "series cleared" 0 (Stats.Series.count (Strovl_apps.Collect.latencies_ms c))

(* ------------------------------ Source ------------------------------- *)

let net_fixture () =
  let engine = Engine.create ~seed:33L () in
  let net = Strovl.Net.create engine (Gen.chain ~n:3 ~hop_delay:(Time.ms 10)) in
  Strovl.Net.start net;
  Strovl.Net.settle net;
  (engine, net)

let source_count_and_rate () =
  let engine, net = net_fixture () in
  let tx = Strovl.Client.attach (Strovl.Net.node net 0) ~port:1 in
  let rx = Strovl.Client.attach (Strovl.Net.node net 2) ~port:2 in
  let n = ref 0 in
  Strovl.Client.set_receiver rx (fun _ -> incr n);
  let sender = Strovl.Client.sender tx ~dest:(P.To_node 2) ~dport:2 () in
  let src =
    Strovl_apps.Source.start ~engine ~sender ~interval:(Time.ms 10) ~bytes:100
      ~count:25 ()
  in
  Engine.run ~until:(Time.add (Engine.now engine) (Time.sec 2)) engine;
  check_int "sent exactly count" 25 (Strovl_apps.Source.sent src);
  check_int "all delivered" 25 !n;
  check_int "no refusals" 0 (Strovl_apps.Source.refused src)

let source_stop () =
  let engine, net = net_fixture () in
  let tx = Strovl.Client.attach (Strovl.Net.node net 0) ~port:3 in
  let sender = Strovl.Client.sender tx ~dest:(P.To_node 2) ~dport:2 () in
  let src =
    Strovl_apps.Source.start ~engine ~sender ~interval:(Time.ms 10) ~bytes:100 ()
  in
  Engine.run ~until:(Time.add (Engine.now engine) (Time.ms 105)) engine;
  Strovl_apps.Source.stop src;
  let sent = Strovl_apps.Source.sent src in
  check_bool "ran at rate" true (sent >= 10 && sent <= 12);
  Engine.run ~until:(Time.add (Engine.now engine) (Time.sec 1)) engine;
  check_int "stopped" sent (Strovl_apps.Source.sent src)

let source_presets () =
  let engine, net = net_fixture () in
  let tx = Strovl.Client.attach (Strovl.Net.node net 0) ~port:4 in
  let sender = Strovl.Client.sender tx ~dest:(P.To_node 2) ~dport:2 () in
  let v = Strovl_apps.Source.video ~engine ~sender ~mbps:8.0 ~count:1 () in
  let h = Strovl_apps.Source.haptic ~engine ~sender ~rate_hz:1000 ~count:1 () in
  Engine.run ~until:(Time.add (Engine.now engine) (Time.sec 1)) engine;
  check_int "video sent" 1 (Strovl_apps.Source.sent v);
  check_int "haptic sent" 1 (Strovl_apps.Source.sent h)

(* ----------------------------- Transcode ----------------------------- *)

let transcode_compound_flow () =
  let engine = Engine.create ~seed:44L () in
  let net = Strovl.Net.create engine (Gen.ring ~n:5 ~hop_delay:(Time.ms 10)) in
  Strovl.Net.start net;
  Strovl.Net.settle net;
  let t =
    Strovl_apps.Transcode.create ~net ~node:2 ~port:10 ~ingest_group:1
      ~out_group:2
  in
  let rx = Strovl.Client.attach (Strovl.Net.node net 4) ~port:11 in
  Strovl.Client.join rx ~group:2;
  let got = ref [] in
  Strovl.Client.set_receiver rx (fun pkt ->
      got := (pkt.P.seq, pkt.P.sent_at, pkt.P.bytes) :: !got);
  Engine.run ~until:(Time.add (Engine.now engine) (Time.ms 500)) engine;
  let tx = Strovl.Client.attach (Strovl.Net.node net 0) ~port:12 in
  let s = Strovl.Client.sender tx ~dest:(P.Any_of_group 1) ~dport:10 () in
  let t0 = Engine.now engine in
  ignore (Strovl.Client.send s ~bytes:1000 ());
  Engine.run ~until:(Time.add (Engine.now engine) (Time.sec 1)) engine;
  check_int "processed" 1 (Strovl_apps.Transcode.processed t);
  (match !got with
  | [ (seq, sent_at, bytes) ] ->
    check_int "seq preserved" 0 seq;
    check_int "origin timestamp preserved" t0 sent_at;
    check_int "bitrate halved" 500 bytes
  | _ -> Alcotest.fail "expected exactly one transcoded delivery");
  Strovl_apps.Transcode.shutdown t;
  ignore (Strovl.Client.send s ~bytes:1000 ());
  Engine.run ~until:(Time.add (Engine.now engine) (Time.sec 1)) engine;
  check_int "offline facility processes nothing more" 1
    (Strovl_apps.Transcode.processed t)

let () =
  Alcotest.run "strovl_apps"
    [
      ( "collect",
        [
          Alcotest.test_case "latency/deadline" `Quick collect_latency_and_deadline;
          Alcotest.test_case "holes" `Quick collect_holes;
          Alcotest.test_case "reset window" `Quick collect_reset_window;
        ] );
      ( "source",
        [
          Alcotest.test_case "count and rate" `Quick source_count_and_rate;
          Alcotest.test_case "stop" `Quick source_stop;
          Alcotest.test_case "presets" `Quick source_presets;
        ] );
      ("transcode", [ Alcotest.test_case "compound flow" `Quick transcode_compound_flow ]);
    ]
