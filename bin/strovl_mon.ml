(* Live overlay health monitor: link health, windowed time-series, and the
   online invariant auditor, as a command-line front end.

   - [health]  runs the US backbone and prints every link endpoint's
     hello-protocol estimate (EWMA RTT / jitter / loss, liveness verdict,
     expected latency).
   - [series]  runs an experiment with the windowed time-series armed and
     prints the collected channels (or dumps them as JSONL).
   - [audit]   runs experiments with the flight recorder feeding the
     invariant auditor; violations are printed with their causal path and
     the exit status is non-zero if any were found.
   - [watch]   runs an experiment with a streaming trace sink that prints
     one dashboard line per sim-time window as the run progresses.
   - [list]    shows the experiment catalogue (shared with strovl_run). *)

open Cmdliner
module Time = Strovl_sim.Time
module Trace = Strovl_obs.Trace
module Export = Strovl_obs.Export
module Series = Strovl_obs.Series
module Health = Strovl_obs.Health
module Audit = Strovl_obs.Audit

let find_expt id =
  match Strovl_expt.find id with
  | Some e -> Some e
  | None ->
    Printf.eprintf "unknown experiment: %s (try `strovl_mon list`)\n" id;
    None

(* ------------------------------- health ------------------------------- *)

(* A dedicated scenario rather than an experiment rerun: the US backbone
   with the requested underlay loss, run until the hello protocol's
   estimators converge, then every endpoint's estimate as its node holds
   it, one per (link, node). *)
let health_main seed loss duration_s json =
  let sim = Strovl_expt.Common.build ~seed (Strovl_topo.Gen.us_backbone ()) in
  if loss > 0. then Strovl_expt.Common.bernoulli_loss sim ~p:loss;
  Strovl_expt.Common.run_for sim (Time.sec duration_s);
  let entries = Strovl_expt.Common.link_health sim in
  if json then
    List.iter (fun h -> print_endline (Health.json h)) entries
  else begin
    Printf.printf "%-6s %-6s %9s %9s %8s %7s %7s %7s %12s\n" "link" "node"
      "rtt_ms" "jit_ms" "loss_pm" "alive" "sent" "acked" "exp_lat_ms";
    List.iter
      (fun h ->
        Printf.printf "%-6d %-6d %9.2f %9.2f %8d %7s %7d %7d %12.2f\n"
          h.Health.h_link h.Health.h_node
          (float_of_int h.Health.rtt_us /. 1000.)
          (float_of_int h.Health.jitter_us /. 1000.)
          (Health.loss_pm h)
          (if h.Health.alive then "up" else "DOWN")
          h.Health.sent h.Health.acked
          (float_of_int (Health.expected_latency_us h) /. 1000.))
      entries
  end;
  0

(* ------------------------------- series ------------------------------- *)

let series_main id quick seed window_ms buckets json filter =
  match find_expt id with
  | None -> 1
  | Some e ->
    Strovl_obs.Metrics.reset ();
    Series.reset ();
    Series.enable ~window:(window_ms * 1000) ~capacity:buckets ();
    let _table = e.Strovl_expt.run ~quick ~seed () in
    let chans =
      List.filter
        (fun ch ->
          match filter with
          | None -> true
          | Some sub ->
            let name = Series.name ch in
            let rec has i =
              i + String.length sub <= String.length name
              && (String.sub name i (String.length sub) = sub || has (i + 1))
            in
            has 0)
        (Series.channels ())
    in
    Series.disable ();
    if chans = [] then begin
      Printf.eprintf "no series points collected\n";
      1
    end
    else if json then begin
      List.iter
        (fun ch ->
          List.iter
            (fun p -> print_endline (Series.point_json ch p))
            (Series.points ch))
        chans;
      0
    end
    else begin
      List.iter
        (fun ch ->
          let pts = Series.points ch in
          let n = List.fold_left (fun a p -> a + p.Series.p_n) 0 pts in
          let sum = List.fold_left (fun a p -> a + p.Series.p_sum) 0 pts in
          let mx = List.fold_left (fun a p -> max a p.Series.p_max) min_int pts in
          Printf.printf "%s{%s}: %d buckets, n=%d mean=%.2f max=%d\n"
            (Series.name ch)
            (String.concat ","
               (List.map (fun (k, v) -> k ^ "=" ^ v) (Series.labels ch)))
            (List.length pts) n
            (if n = 0 then 0. else float_of_int sum /. float_of_int n)
            mx;
          List.iter
            (fun p ->
              Printf.printf "  t=%8.1fms n=%6d sum=%10d max=%8d mean=%10.2f\n"
                (float_of_int p.Series.p_t0 /. 1000.)
                p.Series.p_n p.Series.p_sum p.Series.p_max (Series.mean p))
            pts)
        chans;
      0
    end

(* ------------------------------- audit ------------------------------- *)

let audit_one ~quick ~seed ~capacity ~json (e : Strovl_expt.experiment) =
  Strovl_obs.Metrics.reset ();
  Trace.enable ~capacity ();
  Audit.arm ();
  let _table = e.Strovl_expt.run ~quick ~seed () in
  let violations = Audit.finish () in
  Audit.disarm ();
  if json then
    List.iter
      (fun v ->
        Printf.printf "{\"experiment\":%s,%s\n"
          (Export.json_str e.Strovl_expt.id)
          (let s = Audit.violation_json v in
           String.sub s 1 (String.length s - 1)))
      violations
  else begin
    Printf.printf "%-18s %s (%d trace events, %d violations)\n"
      e.Strovl_expt.id
      (if violations = [] then "CLEAN" else "VIOLATIONS")
      (Trace.total ()) (List.length violations);
    List.iter
      (fun v ->
        Format.printf "  %a@." Audit.pp_violation v;
        (* The causal path behind the first packet-bearing violations. *)
        if v.Audit.v_flow <> Trace.no_flow then begin
          Format.printf "  causal path:@.";
          Export.print_path Format.std_formatter ~flow:v.Audit.v_flow
            ~seq:v.Audit.v_seq
        end)
      violations
  end;
  Trace.disable ();
  List.length violations

let audit_main ids quick seed capacity json =
  let targets, bad =
    match ids with
    | [] -> (Strovl_expt.all, false)
    | ids ->
      let found = List.filter_map find_expt ids in
      (found, List.length found <> List.length ids)
  in
  let total =
    List.fold_left
      (fun acc e -> acc + audit_one ~quick ~seed ~capacity ~json e)
      0 targets
  in
  if (not json) && total = 0 && targets <> [] then
    Printf.printf "all audited experiments clean\n";
  if bad || total > 0 then 1 else 0

(* ------------------------------- watch ------------------------------- *)

(* A per-window dashboard: folds the flight-recorder ring into one row
   per sim-time window. The fold runs over the retained ring after the
   run rather than as a live sink — experiments that ride under
   [Audit.checked] own the one streaming sink slot for the duration, and
   the timeline is in simulated time either way; only the ring capacity
   bounds how far back the dashboard reaches. *)
let watch_main id quick seed capacity interval_ms =
  match find_expt id with
  | None -> 1
  | Some e ->
    let w = interval_ms * 1000 in
    let cur = ref min_int in
    let dlv = ref 0
    and fwd = ref 0
    and drp = ref 0
    and rtx = ref 0
    and rr = ref 0 in
    let header () =
      Printf.printf "%12s %9s %9s %7s %7s %9s\n" "t_ms" "deliver" "forward"
        "drop" "retx" "reroute"
    in
    let flush () =
      if !cur > min_int then
        Printf.printf "%12.1f %9d %9d %7d %7d %9d\n"
          (float_of_int !cur /. 1000.)
          !dlv !fwd !drp !rtx !rr;
      dlv := 0;
      fwd := 0;
      drp := 0;
      rtx := 0;
      rr := 0
    in
    let fold (r : Trace.record) =
      let t0 = r.Trace.ts - (r.Trace.ts mod w) in
      if t0 <> !cur then begin
        flush ();
        cur := t0
      end;
      match r.Trace.ev with
      | Trace.Deliver | Trace.Deliver_replay -> incr dlv
      | Trace.Forward _ | Trace.Forward_replay _ -> incr fwd
      | Trace.Drop _ -> incr drp
      | Trace.Retransmit _ -> incr rtx
      | Trace.Reroute _ -> incr rr
      | _ -> ()
    in
    Strovl_obs.Metrics.reset ();
    Trace.enable ~capacity ();
    let _table = e.Strovl_expt.run ~quick ~seed () in
    header ();
    Trace.iter fold;
    flush ();
    if Trace.total () > Trace.length () then
      Printf.printf
        "(ring wrapped: first %d of %d events lost; raise --capacity)\n"
        (Trace.total () - Trace.length ())
        (Trace.total ());
    Trace.disable ();
    0

(* --------------------------- cmdliner glue --------------------------- *)

let quick =
  let doc = "Reduced packet counts and sweeps (for smoke testing)." in
  Arg.(value & flag & info [ "quick"; "q" ] ~doc)

let seed =
  let doc = "Deterministic seed for the simulation RNG streams." in
  Arg.(value & opt int64 7L & info [ "seed" ] ~doc)

let json =
  let doc = "Machine-readable JSON output." in
  Arg.(value & flag & info [ "json" ] ~doc)

let capacity =
  let doc = "Flight-recorder ring capacity (events retained)." in
  Arg.(value & opt int (1 lsl 18) & info [ "capacity" ] ~doc)

let id_arg =
  let doc = "Experiment id (see the list command)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc)

let health_cmd =
  let loss =
    let doc = "Inject this underlay per-packet loss probability." in
    Arg.(value & opt float 0. & info [ "loss" ] ~doc)
  in
  let duration_s =
    let doc = "Simulated seconds to let the estimators converge." in
    Arg.(value & opt int 30 & info [ "duration" ] ~doc)
  in
  let doc = "print every overlay link endpoint's hello-protocol estimate" in
  Cmd.v
    (Cmd.info "health" ~doc)
    Term.(const health_main $ seed $ loss $ duration_s $ json)

let series_cmd =
  let window_ms =
    let doc = "Time-series bucket width in milliseconds." in
    Arg.(value & opt int 100 & info [ "window-ms" ] ~doc)
  in
  let buckets =
    let doc = "Buckets retained per channel (ring capacity)." in
    Arg.(value & opt int 600 & info [ "buckets" ] ~doc)
  in
  let filter =
    let doc = "Only channels whose name contains $(docv)." in
    Arg.(value & opt (some string) None & info [ "filter" ] ~docv:"SUBSTR" ~doc)
  in
  let doc = "run an experiment with windowed time-series armed" in
  Cmd.v
    (Cmd.info "series" ~doc)
    Term.(
      const series_main $ id_arg $ quick $ seed $ window_ms $ buckets $ json
      $ filter)

let audit_cmd =
  let ids =
    let doc = "Experiment ids to audit (default: the whole suite)." in
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let doc = "run experiments under the online invariant auditor" in
  Cmd.v
    (Cmd.info "audit" ~doc)
    Term.(const audit_main $ ids $ quick $ seed $ capacity $ json)

let watch_cmd =
  let interval_ms =
    let doc = "Dashboard window width in simulated milliseconds." in
    Arg.(value & opt int 500 & info [ "interval-ms" ] ~doc)
  in
  let doc = "stream a per-window event dashboard while an experiment runs" in
  Cmd.v
    (Cmd.info "watch" ~doc)
    Term.(const watch_main $ id_arg $ quick $ seed $ capacity $ interval_ms)

let list_cmd =
  let doc = "list the experiments the monitor can drive" in
  Cmd.v
    (Cmd.info "list" ~doc)
    Term.(
      const (fun () ->
          Strovl_expt.print_list ();
          0)
      $ const ())

let main =
  let doc = "live overlay health: link estimates, time-series and invariant audit" in
  Cmd.group
    (Cmd.info "strovl_mon" ~doc)
    [ health_cmd; series_cmd; audit_cmd; watch_cmd; list_cmd ]

let () = exit (Cmd.eval' main)
