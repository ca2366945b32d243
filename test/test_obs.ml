(* Unit tests for the strovl_obs flight recorder, metrics registry and
   export layer, independent of the overlay stack. *)

module M = Strovl_obs.Metrics
module T = Strovl_obs.Trace
module E = Strovl_obs.Export

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let flow = { T.fi_src = 1; fi_sport = 10; fi_dst = 2; fi_dport = 20 }

let metrics_counters_and_labels () =
  M.reset ();
  let c = M.counter "obs_test_total" in
  let c' = M.counter "obs_test_total" in
  M.Counter.incr c;
  M.Counter.add c' 4;
  check_int "same handle" 5 (M.Counter.value c);
  check_int "find_counter" 5 (M.find_counter "obs_test_total");
  let la = M.counter ~labels:[ ("x", "a") ] "obs_test_labelled" in
  let lb = M.counter ~labels:[ ("x", "b") ] "obs_test_labelled" in
  M.Counter.incr la;
  check_int "labels separate" 0 (M.Counter.value lb);
  check_int "labelled lookup" 1 (M.find_counter ~labels:[ ("x", "a") ] "obs_test_labelled");
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metrics: obs_test_total already registered with another kind")
    (fun () -> ignore (M.gauge "obs_test_total"))

let metrics_disabled_is_noop () =
  M.reset ();
  let c = M.counter "obs_test_gate" in
  M.set_enabled false;
  M.Counter.incr c;
  M.set_enabled true;
  check_int "no update while disabled" 0 (M.Counter.value c);
  M.Counter.incr c;
  check_int "updates resume" 1 (M.Counter.value c)

let metrics_histogram_quantiles () =
  M.reset ();
  let h = M.histogram "obs_test_hist" in
  for i = 1 to 1000 do
    M.Histogram.observe h i
  done;
  check_int "count" 1000 (M.Histogram.count h);
  check_int "sum" 500_500 (M.Histogram.sum h);
  check_int "max" 1000 (M.Histogram.max h);
  (* Log-bucket estimates: within one power-of-two bucket of the truth. *)
  let p50 = M.Histogram.quantile h 0.5 in
  check_bool "p50 in bucket range" true (p50 >= 256. && p50 <= 1024.);
  let p99 = M.Histogram.quantile h 0.99 in
  check_bool "p99 in bucket range" true (p99 >= 512. && p99 <= 2048.)

let trace_off_by_default () =
  T.disable ();
  check_bool "off" false (T.armed ());
  T.emit ~node:0 T.Lsu_flood;
  check_int "no events recorded" 0 (T.total ())

let trace_ring_wraps () =
  T.enable ~capacity:8 ();
  T.set_clock (fun () -> 42);
  for i = 0 to 19 do
    T.emit ~flow ~seq:i ~node:3 T.Enqueue
  done;
  check_int "retains capacity" 8 (T.length ());
  check_int "counts all" 20 (T.total ());
  let seqs = List.map (fun r -> r.T.seq) (T.records ()) in
  Alcotest.(check (list int)) "chronological, newest kept"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    seqs;
  T.disable ()

let trace_digest_sensitivity () =
  let run evs =
    T.enable ~capacity:64 ();
    T.set_clock (fun () -> 7);
    List.iter (fun ev -> T.emit ~flow ~seq:0 ~node:1 ev) evs;
    let d = T.digest () in
    T.disable ();
    d
  in
  let d1 = run [ T.Enqueue; T.Forward 2; T.Deliver ] in
  let d2 = run [ T.Enqueue; T.Forward 2; T.Deliver ] in
  let d3 = run [ T.Enqueue; T.Forward 3; T.Deliver ] in
  Alcotest.(check int64) "same events same digest" d1 d2;
  check_bool "different events differ" true (d1 <> d3)

let export_path_and_drops () =
  M.reset ();
  T.enable ~capacity:64 ();
  T.set_clock (fun () -> 100);
  T.emit ~flow ~seq:5 ~node:1 T.Enqueue;
  T.emit ~flow ~seq:5 ~node:1 (T.Forward 0);
  T.emit ~flow ~seq:5 ~node:2 (T.Retransmit 0);
  T.emit ~flow ~seq:6 ~node:1 T.Enqueue;
  T.emit ~flow ~seq:6 ~node:1 (T.Drop T.No_route);
  T.emit ~flow ~seq:5 ~node:2 T.Deliver;
  let path = E.path_of ~flow ~seq:5 in
  check_int "path events for seq 5" 4 (List.length path);
  (match E.drop_counts () with
  | [ ("no-route", 1) ] -> ()
  | other ->
    Alcotest.failf "unexpected drops: %s"
      (String.concat ";" (List.map (fun (r, n) -> Printf.sprintf "%s=%d" r n) other)));
  check_int "retransmits" 1 (E.retransmit_count ());
  (match E.sample_packet () with
  | Some (f, seq) ->
    check_bool "samples the delivered+retransmitted packet" true
      (f = flow && seq = 5)
  | None -> Alcotest.fail "expected a sample");
  let json = E.record_json (List.hd path) in
  check_bool "record json has event" true
    (String.length json > 0 && json.[0] = '{');
  T.disable ()

(* ------------- Export summary goldens on a hand-built trace ------------ *)

module S = Strovl_obs.Series
module A = Strovl_obs.Audit

let clock = ref 0

let set_manual_clock () =
  clock := 0;
  T.set_clock (fun () -> !clock)

(* Two packets crossing a two-hop path 1 -> 2 -> 3 (links 0, 1), each hop
   5 ms; plus assorted drops, one retransmission, and per-link counters as
   Link.create would register them. Every summary is checked against the
   exact values this little world implies. *)
let export_golden_summaries () =
  M.reset ();
  T.enable ~capacity:256 ();
  set_manual_clock ();
  let gflow = { T.fi_src = 1; fi_sport = 10; fi_dst = 3; fi_dport = 20 } in
  let pkt seq t0 =
    clock := t0;
    T.emit ~flow:gflow ~seq ~node:1 T.Enqueue;
    T.emit ~flow:gflow ~seq ~node:1 (T.Forward 0);
    clock := t0 + 5000;
    T.emit ~flow:gflow ~seq ~node:2 (T.Forward 1);
    clock := t0 + 10000;
    T.emit ~flow:gflow ~seq ~node:3 T.Deliver
  in
  pkt 0 1000;
  pkt 1 2000;
  clock := 13_000;
  T.emit ~flow:gflow ~seq:2 ~node:2 (T.Drop T.Queue_full);
  T.emit ~flow:gflow ~seq:3 ~node:2 (T.Drop T.Queue_full);
  T.emit ~flow:gflow ~seq:4 ~node:1 (T.Drop T.Auth);
  T.emit ~flow:gflow ~seq:1 ~node:1 (T.Retransmit 0);
  (* drop-reason golden: most frequent first *)
  (match E.drop_counts () with
  | [ ("queue-full", 2); ("auth", 1) ] -> ()
  | other ->
    Alcotest.failf "drop_counts: %s"
      (String.concat ";"
         (List.map (fun (r, n) -> Printf.sprintf "%s=%d" r n) other)));
  (* per-flow golden: 2 enqueued, 4 forwards, 2 delivered, 1 retransmit;
     per-packet hop deltas are 0 (enqueue->first forward), 5000, 5000 *)
  (match E.flow_summaries () with
  | [ (f, (enq, fwd, dlv, rtx, mean_hop)) ] ->
    check_bool "flow id" true (f = gflow);
    check_int "enqueued" 2 enq;
    check_int "forwards" 4 fwd;
    check_int "delivered" 2 dlv;
    check_int "retransmits" 1 rtx;
    Alcotest.(check (float 0.01)) "mean hop us" (20_000. /. 6.) mean_hop
  | l -> Alcotest.failf "expected one flow, got %d" (List.length l));
  (* per-link utilization golden, from the metrics registry *)
  let reg name link v =
    M.Counter.add (M.counter ~labels:[ ("link", link) ] name) v
  in
  reg "strovl_link_tx_packets_total" "1-2" 6;
  reg "strovl_link_tx_bytes_total" "1-2" 2640;
  reg "strovl_link_queue_drops_total" "1-2" 2;
  reg "strovl_link_tx_packets_total" "2-3" 2;
  reg "strovl_link_tx_bytes_total" "2-3" 880;
  (match E.links_table () with
  | [ ("1-2", 6, 2640, 2); ("2-3", 2, 880, 0) ] -> ()
  | other ->
    Alcotest.failf "links_table: %s"
      (String.concat ";"
         (List.map
            (fun (l, p, b, d) -> Printf.sprintf "%s:%d:%d:%d" l p b d)
            other)));
  T.disable ()

(* ------------------------- Series bucketing -------------------------- *)

let series_bucketing () =
  S.reset ();
  set_manual_clock ();
  S.enable ~window:1000 ~capacity:4 ();
  let ch = S.channel ~labels:[ ("k", "v") ] "obs_test_series" in
  (* same channel identity regardless of label order *)
  check_bool "identity" true (ch == S.channel ~labels:[ ("k", "v") ] "obs_test_series");
  clock := 100;
  S.add ch 5;
  S.add ch 7;
  clock := 1100;
  S.add ch 1;
  clock := 6500;
  S.incr ch;
  (match S.points ch with
  | [ p0; p1; p2 ] ->
    check_int "bucket 0 aligned" 0 p0.S.p_t0;
    check_int "bucket 0 n" 2 p0.S.p_n;
    check_int "bucket 0 sum" 12 p0.S.p_sum;
    check_int "bucket 0 max" 7 p0.S.p_max;
    check_int "bucket 1 aligned" 1000 p1.S.p_t0;
    check_int "open bucket aligned" 6000 p2.S.p_t0;
    Alcotest.(check (float 0.001)) "mean" 6. (S.mean p0)
  | l -> Alcotest.failf "expected 3 points, got %d" (List.length l));
  (* ring bound: many buckets, only [capacity] closed ones retained *)
  for i = 10 to 30 do
    clock := i * 1000;
    S.add ch i
  done;
  check_bool "bounded" true (List.length (S.points ch) <= 5);
  (* off = no-op *)
  S.disable ();
  let before = List.length (S.points ch) in
  S.add ch 99;
  check_int "disabled is no-op" before (List.length (S.points ch));
  let json = S.point_json ch (List.hd (S.points ch)) in
  check_bool "point json shape" true
    (String.length json > 0 && json.[0] = '{');
  S.reset ()

(* ---------------------- Audit: clean and broken ----------------------- *)

let mk ?(flow = T.no_flow) ?(seq = -1) ts node ev =
  { T.ts; node; flow; seq; ev }

let audit_clean_stream () =
  T.enable ~capacity:256 ();
  set_manual_clock ();
  A.arm ();
  let f = { T.fi_src = 0; fi_sport = 1; fi_dst = 2; fi_dport = 2 } in
  (* a normal packet life, a recovered gap, and an overlay-wide reroute *)
  A.feed (mk ~flow:f ~seq:0 1000 0 T.Enqueue);
  A.feed (mk ~flow:f ~seq:0 1000 0 (T.Forward 0));
  A.feed (mk ~flow:f ~seq:0 6000 1 (T.Forward 1));
  A.feed (mk ~flow:f ~seq:0 11_000 2 T.Deliver);
  A.feed (mk ~seq:7 20_000 1 (T.Nack (0, 7)));
  A.feed (mk ~flow:f ~seq:1 30_000 0 (T.Retransmit 0));
  A.feed (mk 40_000 0 (T.Reroute (3, false)));
  A.feed (mk 45_000 1 (T.Lsu_apply 0));
  A.feed (mk 50_000 2 (T.Lsu_apply 0));
  A.feed (mk 60_000 0 (T.Reroute (3, true)));
  let vs = A.finish () in
  A.disarm ();
  T.disable ();
  List.iter (fun v -> Format.eprintf "%a@." A.pp_violation v) vs;
  check_int "clean stream" 0 (List.length vs);
  (match A.reroute_latencies () with
  | [ lat ] -> check_int "reroute latency" 10_000 lat
  | l -> Alcotest.failf "expected one reroute latency, got %d" (List.length l))

(* A deliberately broken protocol variant: duplicates a delivery, loops a
   forward, ghost-recovers via FEC, ignores a nack, and loses a link-down
   flood — the auditor must flag all five rules. *)
let audit_broken_variant () =
  T.enable ~capacity:256 ();
  set_manual_clock ();
  A.arm ();
  let f = { T.fi_src = 0; fi_sport = 1; fi_dst = 3; fi_dport = 2 } in
  (* dup-deliver: same (flow, seq) handed to sessions twice *)
  A.feed (mk ~flow:f ~seq:0 1000 3 T.Deliver);
  A.feed (mk ~flow:f ~seq:0 2000 3 T.Deliver);
  (* fwd-loop: the packet comes back to node 1 and leaves on link 0 again *)
  A.feed (mk ~flow:f ~seq:1 3000 1 (T.Forward 0));
  A.feed (mk ~flow:f ~seq:1 9000 1 (T.Forward 0));
  (* fec-ghost: node 2 already forwarded seq 2, then "recovers" it *)
  A.feed (mk ~flow:f ~seq:2 4000 2 (T.Forward 1));
  A.feed (mk ~flow:f ~seq:2 8000 2 (T.Fec_recover 1));
  (* recovery-budget: a nack on link 5 never answered (and no retransmit
     activity on that link at all) *)
  A.feed (mk ~seq:9 10_000 2 (T.Nack (5, 9)));
  (* reroute-budget: node 0 reports link 7 down; node 1 hears it but node 2
     keeps applying other floods without ever applying node 0's *)
  A.feed (mk 11_000 0 (T.Reroute (7, false)));
  A.feed (mk 12_000 1 (T.Lsu_apply 0));
  A.feed (mk 13_000 2 (T.Lsu_apply 1));
  A.feed (mk 14_000 2 (T.Lsu_apply 1));
  (* let every budget lapse *)
  A.feed (mk 5_000_000 0 T.Lsu_flood);
  let vs = A.finish () in
  let rules = A.distinct_rules () in
  A.disarm ();
  T.disable ();
  check_int "five violations" 5 (List.length vs);
  Alcotest.(check (list string))
    "all five rules fire"
    [ "dup-deliver"; "fec-ghost"; "fwd-loop"; "recovery-budget";
      "reroute-budget" ]
    rules;
  check_bool "counter advanced" true
    (M.find_counter "strovl_audit_violations_total" >= 5)

(* Replays after a reroute are exempt from dup/loop rules; an epoch change
   (sim-time regression = new run) clears packet identity. *)
let audit_exemptions () =
  T.enable ~capacity:256 ();
  set_manual_clock ();
  A.arm ();
  let f = { T.fi_src = 0; fi_sport = 1; fi_dst = 3; fi_dport = 2 } in
  A.feed (mk ~flow:f ~seq:0 1000 1 (T.Forward 0));
  A.feed (mk ~flow:f ~seq:0 5000 3 T.Deliver);
  (* replayed copy of the same packet: legal *)
  A.feed (mk ~flow:f ~seq:0 6000 1 (T.Forward_replay 0));
  A.feed (mk ~flow:f ~seq:0 9000 3 T.Deliver_replay);
  (* new epoch: the same (flow, seq) delivered again must NOT flag *)
  A.feed (mk ~flow:f ~seq:0 500 1 (T.Forward 0));
  A.feed (mk ~flow:f ~seq:0 900 3 T.Deliver);
  let vs = A.finish () in
  A.disarm ();
  T.disable ();
  List.iter (fun v -> Format.eprintf "%a@." A.pp_violation v) vs;
  check_int "no violations" 0 (List.length vs)

(* The per-hop cost gate (paper SII-D) on the forward-path fixture, on a
   fresh domain with tracing and metrics off. Minor words per packet are
   deterministic: 201.0 when the bound was set, so one more small
   allocation per hop (4 hops, 4+ words each) fails it. The disabled
   recorder and time-series layer must not have collected anything, and
   40 us per packet (10 us per hop, a hundredth of the paper's budget)
   only trips on a gross regression. The @smoke alias gates wall time
   more tightly, as a ratio to a calibration loop (test/fwd_ratio.ml). *)
let forward_path_cost () =
  let n = 10_000 in
  let words, us, delivered, events, channels =
    Domain.join
      (Domain.spawn (fun () ->
           let f = Fwd_path.create () in
           let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
           for _ = 1 to n do
             Fwd_path.packet f
           done;
           let us = (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int n in
           ( (Gc.minor_words () -. w0) /. float_of_int n,
             us,
             Fwd_path.delivered f,
             T.total (),
             List.length (Strovl_obs.Series.channels ()) )))
  in
  check_int "trace events while disabled" 0 events;
  check_int "series channels while disabled" 0 channels;
  check_bool "delivered" true (delivered > 0);
  if words > 211. then
    Alcotest.failf "forward path: %.1f minor words per packet (bound 211)" words;
  if us > 40. then
    Alcotest.failf "forward path: %.1f us per packet (bound 40)" us

let () =
  Alcotest.run "strovl_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counters and labels" `Quick metrics_counters_and_labels;
          Alcotest.test_case "disabled is no-op" `Quick metrics_disabled_is_noop;
          Alcotest.test_case "histogram quantiles" `Quick metrics_histogram_quantiles;
        ] );
      ( "trace",
        [
          Alcotest.test_case "off by default" `Quick trace_off_by_default;
          Alcotest.test_case "ring wraps" `Quick trace_ring_wraps;
          Alcotest.test_case "digest sensitivity" `Quick trace_digest_sensitivity;
        ] );
      ( "export",
        [
          Alcotest.test_case "path and drops" `Quick export_path_and_drops;
          Alcotest.test_case "summary goldens" `Quick export_golden_summaries;
        ] );
      ( "series",
        [ Alcotest.test_case "bucketing and ring" `Quick series_bucketing ] );
      ( "forward path",
        [ Alcotest.test_case "per-hop cost" `Quick forward_path_cost ] );
      ( "audit",
        [
          Alcotest.test_case "clean stream" `Quick audit_clean_stream;
          Alcotest.test_case "broken variant flags all rules" `Quick
            audit_broken_variant;
          Alcotest.test_case "replay and epoch exemptions" `Quick
            audit_exemptions;
        ] );
    ]
