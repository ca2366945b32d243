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
    (fun () -> ignore (M.histogram "obs_test_total"));
  ignore (M.counter ~labels:[ ("x", "a") ] "obs_test_kinds");
  Alcotest.check_raises "kind clash across label sets"
    (Invalid_argument "Metrics: obs_test_kinds already registered with another kind")
    (fun () -> ignore (M.histogram ~labels:[ ("x", "b") ] "obs_test_kinds"))

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

(* The per-bit loop, the model for [Histogram.bucket_of]: 0 for v <= 0,
   else the bit length of v, capped at the last of the 63 buckets. *)
let bucket_model v =
  if v <= 0 then 0
  else begin
    let i = ref 0 and v = ref v in
    while !v > 0 do
      incr i;
      v := !v lsr 1
    done;
    Int.min !i 62
  end

let qcheck_bucket_of =
  let edges =
    QCheck.Gen.(
      oneof
        [
          int;
          map2 (fun k d -> (1 lsl k) + d) (int_bound 62) (int_range (-1) 1);
          oneofl [ 0; 1; max_int; min_int ];
        ])
  in
  QCheck.Test.make ~name:"histogram bucket_of matches the per-bit loop"
    ~count:2000
    (QCheck.make ~print:string_of_int edges)
    (fun v -> M.Histogram.bucket_of v = bucket_model v)

let trace_off_by_default () =
  T.disable ();
  check_bool "off" false (T.armed ());
  T.emit ~node:0 T.Lsu_flood;
  check_int "no events recorded" 0 (T.total ())

let trace_ring_wraps () =
  T.enable ~capacity:8 ();
  T.start_run (fun () -> 42);
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
    T.start_run (fun () -> 7);
    List.iter (fun ev -> T.emit ~flow ~seq:0 ~node:1 ev) evs;
    let d = T.digest () in
    T.disable ();
    d
  in
  let d1 = run [ T.Enqueue; T.Forward 2; T.Deliver ] in
  let d2 = run [ T.Enqueue; T.Forward 2; T.Deliver ] in
  let d3 = run [ T.Enqueue; T.Forward 3; T.Deliver ] in
  (* [run] started a new run each time: the index stays out of the
     digest *)
  Alcotest.(check int64) "same events same digest" d1 d2;
  check_bool "different events differ" true (d1 <> d3)

let export_path_and_drops () =
  M.reset ();
  T.enable ~capacity:64 ();
  T.start_run (fun () -> 100);
  let run = T.run () in
  T.emit ~flow ~seq:5 ~node:1 T.Enqueue;
  T.emit ~flow ~seq:5 ~node:1 (T.Forward 0);
  T.emit ~flow ~seq:5 ~node:2 (T.Retransmit 0);
  T.emit ~flow ~seq:6 ~node:1 T.Enqueue;
  T.emit ~flow ~seq:6 ~node:1 (T.Drop T.No_route);
  T.emit ~flow ~seq:5 ~node:2 T.Deliver;
  (* the next row of an experiment reuses flows and seqs *)
  T.start_run (fun () -> 100);
  T.emit ~flow ~seq:5 ~node:1 T.Enqueue;
  T.emit ~flow ~seq:5 ~node:1 (T.Forward 0);
  let path = E.path_of ~run ~flow ~seq:5 in
  check_int "path events for seq 5 in the first run" 4 (List.length path);
  check_int "and in the second" 2
    (List.length (E.path_of ~run:(run + 1) ~flow ~seq:5));
  (match E.drop_counts () with
  | [ ("no-route", 1) ] -> ()
  | other ->
    Alcotest.failf "unexpected drops: %s"
      (String.concat ";" (List.map (fun (r, n) -> Printf.sprintf "%s=%d" r n) other)));
  check_int "retransmits" 1 (E.retransmit_count ());
  (match E.sample_packet () with
  | Some (r, f, seq) ->
    check_bool "samples the delivered+retransmitted packet" true
      (r = run && f = flow && seq = 5)
  | None -> Alcotest.fail "expected a sample");
  let json = E.record_json (List.hd path) in
  Alcotest.(check string) "record json, run first"
    (Printf.sprintf
       "{\"run\":%d,\"ts\":100,\"node\":1,\"flow\":{\"src\":1,\"sport\":10,\"dst\":2,\"dport\":20},\"seq\":5,\"ev\":\"enqueue\"}"
       run)
    json;
  T.disable ()

(* ------------- Export summary goldens on a hand-built trace ------------ *)

module A = Strovl_obs.Audit

(* A live flow, traced end to end on the forward-path fixture: a negative
   seq asks for every record of the flow, so the one packet sent in the
   run shows its enqueue, its forwards and its delivery, exactly as its
   own seq does. *)
let export_path_live_flow () =
  let all, one, runs =
    Domain.join
      (Domain.spawn (fun () ->
           let f = Fwd_path.create () in
           T.enable ~capacity:256 ();
           T.start_run (fun () -> Strovl_sim.Engine.now f.Fwd_path.engine);
           let run = T.run () in
           Fwd_path.packet f;
           let flow = { T.fi_src = 0; fi_sport = 1; fi_dst = 8; fi_dport = 9 } in
           ( E.path_of ~run ~flow ~seq:(-1),
             E.path_of ~run ~flow ~seq:f.Fwd_path.seq,
             List.map (fun r -> r - run) (E.runs_with ~flow ~seq:(-1)) )))
  in
  Alcotest.(check (list int)) "recorded in the one run" [ 0 ] runs;
  let has p = List.exists (fun r -> p r.T.ev) all in
  check_bool "enqueue" true (has (function T.Enqueue -> true | _ -> false));
  check_bool "forward" true (has (function T.Forward _ -> true | _ -> false));
  check_bool "deliver" true (has (function T.Deliver -> true | _ -> false));
  check_int "the packet's own path" (List.length one) (List.length all)

let clock = ref 0

let set_manual_clock () =
  clock := 0;
  T.start_run (fun () -> !clock)

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

(* `strovl_run trace` is the one view of a traced run's drop reasons,
   per-link utilization and summary: on fig3-recovery at quick, its text
   summary lists the wire-loss drops and one per-link row for each link
   the metrics registry saw, and its JSON carries the drop reasons and the
   metrics dump. *)
let export_trace_summary () =
  let text, links, json =
    Strovl_expt.run_isolated ~trace:T.default_capacity ~quick:true ~seed:7L
      (Option.get (Strovl_expt.find "fig3-recovery"))
      (fun _table ->
        ( Format.asprintf "%t" E.print_summary,
          E.links_table (),
          E.summary_json () ))
  in
  let lines = String.split_on_char '\n' text in
  (* The lines after [heading] up to the next blank one. *)
  let section heading =
    let rec skip = function
      | [] -> []
      | l :: rest -> if l = heading then take rest else skip rest
    and take = function
      | l :: rest when l <> "" -> l :: take rest
      | _ -> []
    in
    skip lines
  in
  check_bool "a wire-loss drop reason" true
    (List.exists
       (fun l -> String.starts_with ~prefix:"  wire-loss " l)
       (section "top drop reasons:"));
  check_bool "links in the registry" true (links <> []);
  Alcotest.(check (list string))
    "one per-link row per link"
    (List.map
       (fun (lbl, p, b, d) -> Printf.sprintf "  %-10s %10d %14d %8d" lbl p b d)
       links)
    (List.tl (section "per-link utilization:"));
  let has sub =
    let n = String.length sub in
    let rec at i =
      i + n <= String.length json && (String.sub json i n = sub || at (i + 1))
    in
    at 0
  in
  check_bool "json drops" true (has "\"drops\":{");
  check_bool "json metrics" true (has "\"metrics\":[")

(* ------------------------- Series bucketing -------------------------- *)

(* The time axis of Metrics: every update of a handle, counter or
   histogram, is one sample in its window-aligned bucket of its run. *)
let series_bucketing () =
  M.purge ();
  set_manual_clock ();
  let run = T.run () in
  let c = M.counter ~labels:[ ("k", "v") ] "obs_test_series_total" in
  let h = M.histogram ~labels:[ ("k", "v") ] "obs_test_series_us" in
  clock := 50;
  M.Counter.incr c;
  check_int "no buckets while disarmed" 0 (List.length (M.series ()));
  Alcotest.check_raises "window must be positive"
    (Invalid_argument "Metrics.arm_series: window must be positive") (fun () ->
      M.arm_series ~window:0 ~capacity:4);
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Metrics.arm_series: capacity must be positive")
    (fun () -> M.arm_series ~window:1000 ~capacity:0);
  M.arm_series ~window:1000 ~capacity:4;
  let chan name =
    match List.filter (fun (n, _, _) -> n = name) (M.series ()) with
    | [ ch ] -> ch
    | l -> Alcotest.failf "%s: expected one channel, got %d" name (List.length l)
  in
  let points name =
    let _, _, pts = chan name in
    pts
  in
  clock := 100;
  M.Counter.add c 5;
  M.Counter.add c 7;
  M.Histogram.observe h 3;
  clock := 1100;
  M.Counter.incr c;
  M.Histogram.observe h (-4);
  clock := 6500;
  M.Counter.incr c;
  let _, labels, _ = chan "obs_test_series_total" in
  Alcotest.(check (list (pair string string))) "labels" [ ("k", "v") ] labels;
  (match points "obs_test_series_total" with
  | [ p0; p1; p2 ] ->
    check_int "bucket 0 aligned" 0 p0.M.p_t0;
    check_int "bucket 0 run" run p0.M.p_run;
    check_int "bucket 0 n" 2 p0.M.p_n;
    check_int "bucket 0 sum" 12 p0.M.p_sum;
    check_int "bucket 0 max" 7 p0.M.p_max;
    check_int "bucket 1 aligned" 1000 p1.M.p_t0;
    check_int "open bucket aligned" 6000 p2.M.p_t0
  | l -> Alcotest.failf "expected 3 points, got %d" (List.length l));
  (match points "obs_test_series_us" with
  | [ p0; p1 ] ->
    check_int "histogram bucket 0 sum" 3 p0.M.p_sum;
    check_int "histogram sample clamped as observed" 0 p1.M.p_max;
    check_int "histogram count" 2 (M.Histogram.count h)
  | l -> Alcotest.failf "expected 2 histogram points, got %d" (List.length l));
  check_int "only metrics with samples are channels" 2 (List.length (M.series ()));
  (* a new run closes the open bucket even where its clock reads the same
     window, and its buckets carry its index *)
  T.start_run (fun () -> !clock);
  M.Counter.incr c;
  (match List.rev (points "obs_test_series_total") with
  | p3 :: p2 :: _ ->
    check_int "old run's bucket closed" 1 p2.M.p_n;
    check_int "new run's bucket" (run + 1) p3.M.p_run;
    check_int "same window" 6000 p3.M.p_t0;
    check_int "new run's sample" 1 p3.M.p_n
  | l -> Alcotest.failf "expected 4 points, got %d" (List.length l));
  (* ring bound: many buckets, only [capacity] closed ones retained *)
  for i = 10 to 30 do
    clock := i * 1000;
    M.Counter.add c i
  done;
  let pts = points "obs_test_series_total" in
  check_int "bounded" 5 (List.length pts);
  check_int "newest kept" 30_000 (List.nth pts 4).M.p_t0;
  Alcotest.(check string) "point json"
    (Printf.sprintf
       "{\"series\":\"obs_test_series_total\",\"labels\":{\"k\":\"v\"},\"run\":%d,\"t0\":26000,\"n\":1,\"sum\":26,\"max\":26,\"mean\":26.000}"
       (run + 1))
    (E.point_json "obs_test_series_total" labels (List.hd pts));
  (* purge disarms: a new handle's updates are no samples *)
  M.purge ();
  M.Counter.incr (M.counter "obs_test_series_total");
  check_int "disarmed after purge" 0 (List.length (M.series ()))

(* ---------------------- Audit: clean and broken ----------------------- *)

let mk ?(run = 1) ?(flow = T.no_flow) ?(seq = -1) ts node ev =
  { T.run; ts; node; flow; seq; ev }

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

(* Replays after a reroute are exempt from dup/loop rules; a new run
   clears packet identity, whatever its clock reads. *)
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
  (* new run: the same (flow, seq) delivered again must NOT flag, also
     when its clock has not gone back *)
  A.feed (mk ~run:2 ~flow:f ~seq:0 500 1 (T.Forward 0));
  A.feed (mk ~run:2 ~flow:f ~seq:0 900 3 T.Deliver);
  A.feed (mk ~run:3 ~flow:f ~seq:0 9500 1 (T.Forward 0));
  A.feed (mk ~run:3 ~flow:f ~seq:0 9900 3 T.Deliver);
  let vs = A.finish () in
  check_int "no violations" 0 (List.length vs);
  (* within one run the clock going back is no new run *)
  A.feed (mk ~run:3 ~flow:f ~seq:0 100 3 T.Deliver);
  let vs = A.finish () in
  A.disarm ();
  T.disable ();
  List.iter (fun v -> Format.eprintf "%a@." A.pp_violation v) vs;
  (match vs with
  | [ v ] ->
    Alcotest.(check string) "dup-deliver in run 3" "dup-deliver" v.A.v_rule;
    check_int "violation carries its run" 3 v.A.v_run
  | _ -> Alcotest.failf "expected one violation, got %d" (List.length vs))

(* The per-hop cost gate (paper SII-D) on the forward-path fixture, on a
   fresh domain with tracing and metrics off. Minor words per packet are
   deterministic: 189.1 when the bound was set, so one more small
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
             List.length (Strovl_obs.Metrics.series ()) )))
  in
  check_int "trace events while disabled" 0 events;
  check_int "series channels while disabled" 0 channels;
  check_bool "delivered" true (delivered > 0);
  if words > 199. then
    Alcotest.failf "forward path: %.1f minor words per packet (bound 199)" words;
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
          QCheck_alcotest.to_alcotest qcheck_bucket_of;
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
          Alcotest.test_case "path of a live flow" `Quick export_path_live_flow;
          Alcotest.test_case "summary goldens" `Quick export_golden_summaries;
          Alcotest.test_case "trace summary of a run" `Quick export_trace_summary;
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
