(* Smoke + invariant tests over the experiment suite: every experiment must
   run in quick mode and its table must carry the paper's qualitative
   shape. These are the repository's "does the reproduction reproduce"
   checks; the bench binary prints the full-size versions. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let seed = 1234L

let pct cell = Scanf.sscanf cell "%f%%" (fun f -> f)
let ms cell = Scanf.sscanf cell "%fms" (fun f -> f)

let find_row table ~prefix =
  match
    List.find_opt
      (fun row ->
        match row with
        | c0 :: rest ->
          List.exists (fun c -> c = prefix) (c0 :: rest)
          && List.mem prefix (List.filteri (fun i _ -> i < 2) (c0 :: rest))
        | [] -> false)
      table.Strovl_expt.Table.rows
  with
  | Some r -> r
  | None -> Alcotest.failf "row %s not found" prefix

let registry_complete () =
  check_int "14 experiments" 14 (List.length Strovl_expt.all);
  List.iter
    (fun (e : Strovl_expt.experiment) ->
      check_bool "find works" true (Strovl_expt.find e.Strovl_expt.id <> None))
    Strovl_expt.all;
  check_bool "unknown id" true (Strovl_expt.find "nope" = None)

let coverage_claims () =
  let t = Strovl_expt.Coverage.run ~quick:true ~seed () in
  let row p = find_row t ~prefix:p in
  check_bool "a few tens of nodes" true
    (int_of_string (List.nth (row "overlay nodes") 1) <= 40);
  check_bool "median link ~10ms" true (ms (List.nth (row "median link latency") 1) <= 12.);
  check_bool "most pairs within 150ms" true
    (pct (List.nth (row "pairs reachable <=150ms") 1) >= 95.)

let multicast_saves () =
  let t = Strovl_expt.Multicast.run ~quick:true ~seed () in
  match t.Strovl_expt.Table.rows with
  | [ row ] ->
    check_bool "savings > 1" true (float_of_string (List.nth row 4) > 1.0);
    check_bool "full delivery" true (pct (List.nth row 5) >= 99.9);
    (* measured tx/pkt matches analytic tree size *)
    check_bool "measured = analytic" true
      (Float.abs (float_of_string (List.nth row 1) -. float_of_string (List.nth row 2))
      < 0.01)
  | _ -> Alcotest.fail "expected one quick row"

let backpressure_isolates () =
  let t = Strovl_expt.Backpressure.run ~quick:true ~seed () in
  let blocked = find_row t ~prefix:"SEA->MIA (dst compromised)" in
  let healthy = find_row t ~prefix:"SEA->BOS (healthy)" in
  check_bool "blocked flow starved" true (pct (List.nth blocked 3) < 10.);
  check_bool "blocked flow refused at source" true (int_of_string (List.nth blocked 2) > 0);
  check_bool "healthy flow fine" true (pct (List.nth healthy 3) > 95.);
  check_int "healthy never refused" 0 (int_of_string (List.nth healthy 2))

let disjoint_bound_tight () =
  let t = Strovl_expt.Disjoint.run ~quick:true ~seed () in
  let get scheme c =
    let row =
      List.find
        (fun r -> List.nth r 0 = scheme && List.nth r 1 = string_of_int c)
        t.Strovl_expt.Table.rows
    in
    pct (List.nth row 2)
  in
  check_bool "single c0 ok" true (get "single-path" 0 > 99.);
  check_bool "single c1 dead" true (get "single-path" 1 < 1.);
  check_bool "2-disjoint c1 ok" true (get "2-disjoint" 1 > 99.);
  check_bool "2-disjoint c2 dead" true (get "2-disjoint" 2 < 1.);
  check_bool "3-disjoint c2 ok" true (get "3-disjoint" 2 > 99.);
  check_bool "flooding c2 ok" true (get "flooding" 2 > 99.)

let scada_crypto_wall () =
  let t = Strovl_expt.Scada.run ~quick:true ~seed () in
  let total auth n =
    let row =
      List.find
        (fun r -> List.nth r 0 = string_of_int n && List.nth r 1 = auth)
        t.Strovl_expt.Table.rows
    in
    ms (List.nth row 2)
  in
  check_bool "small system fits with rsa" true (total "rsa-style" 100 <= 200.);
  check_bool "mac scales further" true (total "mac-based" 1000 < total "rsa-style" 1000)

let lossy_link_detour () =
  let t = Strovl_expt.Lossy_link.run ~quick:true ~seed () in
  let latency_only = find_row t ~prefix:"latency-only metric" in
  let loss_aware = find_row t ~prefix:"loss-aware metric" in
  check_bool "latency-only suffers the loss" true (pct (List.nth latency_only 1) < 95.);
  Alcotest.(check string) "latency-only stays" "no" (List.nth latency_only 3);
  check_bool "loss-aware restores delivery" true (pct (List.nth loss_aware 1) > 98.);
  Alcotest.(check string) "loss-aware detours" "yes" (List.nth loss_aware 3)

let capacity_cluster_scaling () =
  let t = Strovl_expt.Capacity.run ~quick:true ~seed () in
  let get pps cluster =
    let row =
      List.find
        (fun r -> List.nth r 0 = string_of_int pps && List.nth r 1 = string_of_int cluster)
        t.Strovl_expt.Table.rows
    in
    pct (List.nth row 2)
  in
  check_bool "under capacity ok" true (get 4_000 1 > 99.);
  check_bool "overload sheds ~ rate/offered" true
    (let d = get 12_000 1 in
     d > 30. && d < 55.);
  check_bool "cluster absorbs" true (get 12_000 4 > 99.)

let onnet_beats_offnet () =
  let t = Strovl_expt.Onnet.run ~quick:true ~seed () in
  let on = find_row t ~prefix:"all links on-net" in
  let off = find_row t ~prefix:"all links off-net (ISP0|ISP1)" in
  check_bool "on-net full delivery" true (pct (List.nth on 1) > 99.);
  check_bool "off-net loses at peering" true (pct (List.nth off 1) < pct (List.nth on 1));
  check_bool "off-net slower" true (ms (List.nth off 2) > ms (List.nth on 2))

let reroute_vs_bgp () =
  let t = Strovl_expt.Reroute.run ~quick:true ~seed () in
  match t.Strovl_expt.Table.rows with
  | [ [ _; ov_mh ]; [ _; ov_rr ]; [ _; bgp ] ] ->
    check_bool "overlay multihoming sub-second" true (ms ov_mh < 1000.);
    check_bool "overlay reroute sub-second" true (ms ov_rr < 1000.);
    check_bool "bgp orders of magnitude worse" true (ms bgp > 10. *. ms ov_rr)
  | _ -> Alcotest.fail "expected 3 rows"

(* ----------------------------- isolated runs ---------------------------- *)

let expt id = Option.get (Strovl_expt.find id)

(* What a run must never leave behind on its domain. *)
let check_pristine what =
  check_bool (what ^ ": recorder disarmed") false (Strovl_obs.Trace.armed ());
  check_bool (what ^ ": auditor disarmed") false (Strovl_obs.Audit.armed ());
  check_int (what ^ ": no series channels") 0
    (List.length (Strovl_obs.Metrics.series ()));
  check_int (what ^ ": empty metrics") 0
    (List.length (Strovl_obs.Metrics.dump ()))

(* The helper hides what ran before, arms what it is asked for, lets the
   query read it, and drops all of it afterwards — also when the query
   raises. *)
let isolated_leaves_nothing () =
  let fig3 = expt "fig3-recovery" in
  let observe query =
    Strovl_expt.run_isolated ~trace:(1 lsl 16) ~series:(100_000, 600)
      ~audit:true ~quick:true ~seed:7L fig3 query
  in
  Strovl_obs.Metrics.Counter.incr (Strovl_obs.Metrics.counter "leaked_before");
  let leaked, events, channels, metrics, audited =
    observe (fun _table ->
        ( Strovl_obs.Metrics.find_counter "leaked_before",
          Strovl_obs.Trace.total (),
          List.length (Strovl_obs.Metrics.series ()),
          List.length (Strovl_obs.Metrics.dump ()),
          Strovl_obs.Audit.armed () ))
  in
  check_int "query saw no earlier metrics" 0 leaked;
  check_bool "query saw trace events" true (events > 0);
  check_bool "query saw series channels" true (channels > 0);
  check_bool "query saw metrics" true (metrics > 0);
  check_bool "query saw the auditor armed" true audited;
  check_pristine "after the query returns";
  (match observe (fun _table -> failwith "query failed") with
  | () -> Alcotest.fail "the query's exception was swallowed"
  | exception Failure _ -> ());
  check_pristine "after the query raises"

(* The one path over time: with the time axis armed and a ring long enough
   never to wrap, every metric's buckets add up to its total — a counter's
   sums to its value, a histogram's sample counts to its count — and each
   run's buckets (fig3's rows are three runs, each from time 0) go forward
   in time. *)
let isolated_series_totals () =
  let capacity = 4096 in
  let metrics, channels =
    Strovl_expt.run_isolated ~series:(100_000, capacity) ~quick:true ~seed:7L
      (expt "fig3-recovery") (fun _table ->
        (Strovl_obs.Metrics.dump (), Strovl_obs.Metrics.series ()))
  in
  let module M = Strovl_obs.Metrics in
  let buckets name labels =
    match List.find_opt (fun (n, l, _) -> n = name && l = labels) channels with
    | None -> []
    | Some (_, _, pts) -> pts
  in
  let total f pts = List.fold_left (fun acc p -> acc + f p) 0 pts in
  check_bool "channels" true (channels <> []);
  List.iter
    (fun (name, labels, pts) ->
      check_bool (name ^ ": a channel is a metric") true
        (List.exists (fun (n, l, _) -> n = name && l = labels) metrics);
      ignore
        (List.fold_left
           (fun (prev : M.point option) (p : M.point) ->
             (match prev with
             | Some q when q.M.p_run = p.M.p_run ->
               if p.M.p_t0 <= q.M.p_t0 then
                 Alcotest.failf "%s: t0 %d after %d within run %d" name
                   p.M.p_t0 q.M.p_t0 p.M.p_run
             | Some q ->
               check_bool (name ^ ": runs in order") true (p.M.p_run > q.M.p_run)
             | None -> ());
             Some p)
           None pts))
    channels;
  List.iter
    (fun (name, labels, v) ->
      let pts = buckets name labels in
      check_bool (name ^ ": ring did not wrap") true
        (List.length pts <= capacity);
      match v with
      | M.Counter_v n ->
        check_int (name ^ ": bucket sums total the counter") n
          (total (fun p -> p.M.p_sum) pts)
      | M.Histogram_v { count; sum; _ } ->
        check_int (name ^ ": bucket counts total the count") count
          (total (fun p -> p.M.p_n) pts);
        check_int (name ^ ": bucket sums total the sum") sum
          (total (fun p -> p.M.p_sum) pts))
    metrics;
  (* Rows run in table order: e2e-arq, fig3's first row, is run 1 and alone
     sends on the direct 0-5 path; the two hop-by-hop rows follow. *)
  let runs_of link =
    List.sort_uniq compare
      (List.map
         (fun (p : M.point) -> p.M.p_run)
         (buckets "strovl_link_tx_packets_total" [ ("link", link) ]))
  in
  Alcotest.(check (list int)) "0-5: run 1 only" [ 1 ] (runs_of "0-5");
  List.iter
    (fun link ->
      Alcotest.(check (list int)) (link ^ ": runs 2 and 3 only") [ 2; 3 ]
        (runs_of link))
    [ "0-1"; "1-2"; "2-3"; "3-4"; "4-5" ]

(* A sampled packet's causal path is one run's: fig3's hop-by-hop rows
   send the same flow and seqs, and without the run their paths would
   interleave into one with two enqueues and two deliveries. *)
let isolated_sampled_path_one_run () =
  let path =
    Strovl_expt.run_isolated ~trace:Strovl_obs.Trace.default_capacity
      ~quick:true ~seed:7L (expt "fig3-recovery") (fun _table ->
        match Strovl_obs.Export.sample_packet () with
        | None -> Alcotest.fail "no sampled packet"
        | Some (run, flow, seq) -> Strovl_obs.Export.path_of ~run ~flow ~seq)
  in
  let count f = List.length (List.filter (fun r -> f r.Strovl_obs.Trace.ev) path) in
  check_int "one enqueue" 1 (count (( = ) Strovl_obs.Trace.Enqueue));
  check_bool "at most one deliver" true
    (count (( = ) Strovl_obs.Trace.Deliver) <= 1)

(* The auditor sees only what the recorder emits, so asking for it alone
   still arms a recorder: the run is really audited. *)
let isolated_audit_alone () =
  let events, audited =
    Strovl_expt.run_isolated ~audit:true ~quick:true ~seed:7L
      (expt "fig3-recovery") (fun _table ->
        (Strovl_obs.Trace.total (), Strovl_obs.Audit.armed ()))
  in
  check_bool "auditor armed" true audited;
  check_bool "recorder fed the auditor" true (events > 0);
  check_pristine "after the audited run"

(* The whole suite under the online invariant auditor, as `strovl_run audit
   --quick` runs it: every experiment is clean. The auditor's budgets are
   constants, so this is what guards them against the experiments. *)
let isolated_audit_all_clean () =
  List.iter
    (fun (e : Strovl_expt.experiment) ->
      let violations =
        Strovl_expt.run_isolated ~audit:true ~quick:true ~seed:7L e
          (fun _table -> Strovl_obs.Audit.finish ())
      in
      List.iter
        (fun v -> Format.eprintf "%s: %a@." e.id Strovl_obs.Audit.pp_violation v)
        violations;
      check_int (e.id ^ ": violations") 0 (List.length violations))
    Strovl_expt.all;
  check_pristine "after the audited suite"

(* Every line of DIGESTS.quick, from traced runs that ignore whatever ran
   before them on the domain: here a reroute-bgp run that leaves its
   recorder, series and metrics behind. The digests come from the pooled
   runner, the path `strovl_run digest` prints from. *)
let isolated_digest_after_leaky_run () =
  let expected =
    In_channel.with_open_text "../DIGESTS.quick" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           Scanf.sscanf_opt line "%s %Lx" (fun id digest -> (id, digest)))
  in
  check_int "one DIGESTS.quick line per experiment"
    (List.length Strovl_expt.all) (List.length expected);
  Strovl_obs.Trace.enable ();
  Strovl_obs.Metrics.arm_series ~window:100_000 ~capacity:600;
  ignore ((expt "reroute-bgp").run ~quick:true ~seed:7L ());
  let outcomes =
    Strovl_expt.run_many ~jobs:1 ~trace:Strovl_obs.Trace.default_capacity
      ~quick:true
      (List.map (fun (id, _) -> (expt id, 7L)) expected)
      (fun _ _ -> Strovl_obs.Trace.digest ())
  in
  List.iteri
    (fun i (id, digest) ->
      Alcotest.(check int64)
        ("DIGESTS.quick " ^ id) digest
        (Strovl_par.Pool.outcome_exn outcomes.(i)))
    expected;
  check_pristine "after the traced runs"

(* ------------------------------ allocation ----------------------------- *)

(* What one quick pass of the whole suite allocates, on the path sim-suite
   runs (each experiment in Ctx.isolate on one domain, so the domain's
   engine lives across passes), after one warm-up pass, on a fresh domain.
   Two numbers, each with a bound over its value when the gate was set:
   - minor words: 28.42M-28.61M over four passes (it moves by about 1%
     from pass to pass), bounded at 29.0M;
   - words allocated straight into the major heap (major minus promoted):
     807,685 on every pass, bounded at 850,000, which one more growth of a
     timer wheel to 32,768 buckets (two 32,768-word arrays) exceeds. It
     read 3,794,966 while every row built its own engine and grew its own
     wheel. *)
let suite_pass_allocation () =
  let pass () =
    List.iter
      (fun (e : Strovl_expt.experiment) ->
        Strovl_obs.Ctx.isolate (fun () ->
            ignore (e.run ~quick:true ~seed:7L ())))
      Strovl_expt.all
  in
  let minor, direct =
    Domain.join
      (Domain.spawn (fun () ->
           pass ();
           let mi0, pr0, ma0 = Gc.counters () in
           pass ();
           let mi1, pr1, ma1 = Gc.counters () in
           (mi1 -. mi0, ma1 -. ma0 -. (pr1 -. pr0))))
  in
  if minor > 29.0e6 then
    Alcotest.failf "quick suite pass: %.0f minor words (bound 29.0M)" minor;
  if direct > 850_000. then
    Alcotest.failf
      "quick suite pass: %.0f words allocated in the major heap (bound \
       850,000)"
      direct

let () =
  Alcotest.run "strovl_expt"
    [
      ( "registry",
        [ Alcotest.test_case "complete" `Quick registry_complete ] );
      ( "isolated run",
        [
          Alcotest.test_case "leaves nothing behind" `Quick
            isolated_leaves_nothing;
          Alcotest.test_case "audit alone arms the recorder" `Quick
            isolated_audit_alone;
          Alcotest.test_case "series totals the metrics" `Quick
            isolated_series_totals;
          Alcotest.test_case "sampled path is one run's" `Quick
            isolated_sampled_path_one_run;
          Alcotest.test_case "digest after a leaky run" `Quick
            isolated_digest_after_leaky_run;
          Alcotest.test_case "every experiment audits clean" `Quick
            isolated_audit_all_clean;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "quick suite pass" `Quick suite_pass_allocation;
        ] );
      ( "claims",
        [
          Alcotest.test_case "coverage" `Quick coverage_claims;
          Alcotest.test_case "multicast" `Slow multicast_saves;
          Alcotest.test_case "backpressure" `Slow backpressure_isolates;
          Alcotest.test_case "disjoint bound" `Slow disjoint_bound_tight;
          Alcotest.test_case "scada wall" `Slow scada_crypto_wall;
          Alcotest.test_case "lossy link detour" `Slow lossy_link_detour;
          Alcotest.test_case "capacity clusters" `Slow capacity_cluster_scaling;
          Alcotest.test_case "on-net beats off-net" `Slow onnet_beats_offnet;
          Alcotest.test_case "reroute vs bgp" `Slow reroute_vs_bgp;
        ] );
    ]
