(* The experiment CLI: runs, sweeps, audits and traces the paper-reproduction
   experiments, and reads the hello protocol's link estimates. One command
   per question:

   - [run], [sweep], [list]: result tables (fanned over a domain pool with
     [-j]), one experiment aggregated across a seed range, the catalogue.
   - [digest]: each experiment's trace-digest determinism fingerprint.
   - [trace]: a traced run's table, then its summary (drop reasons,
     retransmits, per-link utilization, per-flow table) and a sampled
     packet's causal path.
   - [path]: the causal path of one packet or flow, per run.
   - [series]: an experiment's metrics over time, one channel per metric
     that received samples, one timeline per run of the experiment; run n
     is the experiment's n-th run in table order.
   - [audit]: experiments under the online invariant auditor; violations
     are printed with their causal path and the exit status is 1.
   - [health]: the US backbone's per-endpoint hello-protocol estimates.

   Every run goes through Strovl_expt.isolated: a fresh per-run
   observability context with the recorder, series or auditor the command
   asked for armed, so [-j 1] and [-j N] produce byte-identical output and
   a query sees only its own run. The multi-experiment commands make one
   Strovl_expt.run_many call each and print on the main domain; the
   one-experiment commands call Strovl_expt.run_isolated. *)

open Cmdliner
module Time = Strovl_sim.Time
module Trace = Strovl_obs.Trace
module Export = Strovl_obs.Export
module Metrics = Strovl_obs.Metrics
module Health = Strovl_obs.Health
module Audit = Strovl_obs.Audit
module Table = Strovl_expt.Table

(* ------------------------------ targets ------------------------------ *)

let find id =
  match Strovl_expt.find id with
  | Some e -> Some e
  | None ->
    Printf.eprintf "unknown experiment: %s (try `strovl_run list`)\n" id;
    None

(* No ids, or the pseudo-id [all], select the whole catalogue in paper
   order. Each unknown id gets one stderr line and the known ones still
   run, but the second component is false so the command exits 1: scripts
   must not mistake a typo for a clean pass. *)
let resolve ids =
  let named = List.filter (( <> ) "all") ids in
  let found = List.filter_map find named in
  ( (if ids <> [] && named = ids then found else Strovl_expt.all),
    List.length found = List.length named )

(* The one-experiment commands: [query]'s exit code, or 1 for an unknown
   id. *)
let observe_one ?trace ?series ?audit (id, quick, seed) query =
  match find id with
  | None -> 1
  | Some e -> Strovl_expt.run_isolated ?trace ?series ?audit ~quick ~seed e query

(* The multi-experiment commands: one Strovl_expt.run_many call over
   (experiment, seed) pairs, [query] inside each run's context. Results
   come back in input order for the caller to print on the main domain, so
   every [-j] prints the same bytes. A run that raised gets one stderr
   line and no result; the flag is false if any did. *)
let run_many ?jobs ?trace ?audit ~quick runs query =
  let outcomes = Strovl_expt.run_many ?jobs ?trace ?audit ~quick runs query in
  let results =
    List.mapi
      (fun i ((e : Strovl_expt.experiment), seed) ->
        match outcomes.(i) with
        | Strovl_par.Pool.Done v -> Some v
        | Strovl_par.Pool.Failed { exn; backtrace } ->
          Printf.eprintf "experiment %s (seed %Ld) failed: %s\n" e.id seed exn;
          if backtrace <> "" then prerr_string backtrace;
          None)
      runs
  in
  (List.filter_map Fun.id results, List.for_all Option.is_some results)

let at seed = List.map (fun e -> (e, seed))

let print_table json t =
  if json then print_endline (Table.to_json t)
  else Table.print Format.std_formatter t

(* ------------------------------ run/sweep ---------------------------- *)

let run_experiments ids quick seed json jobs =
  let targets, known = resolve ids in
  let tables, ran = run_many ~jobs ~quick (at seed targets) (fun _ t -> t) in
  List.iter (print_table json) tables;
  if known && ran then 0 else 1

(* "a..b" (inclusive), "a,b,c", or a single seed. Errors are specific —
   a descending range in particular must not be mistaken for an empty
   sweep. *)
let parse_seeds s =
  let int64 x = Int64.of_string_opt (String.trim x) in
  match String.index_opt s '.' with
  | Some i
    when i + 1 < String.length s
         && s.[i + 1] = '.'
         && (not (String.contains s ',')) -> begin
    match (int64 (String.sub s 0 i), int64 (String.sub s (i + 2) (String.length s - i - 2))) with
    | Some a, Some b when a > b ->
      Error
        (Printf.sprintf
           "descending seed range %S is empty — did you mean %Ld..%Ld?" s b a)
    | Some a, Some b ->
      let n = Int64.to_int (Int64.sub b a) + 1 in
      if n > 10_000 then
        Error (Printf.sprintf "seed range %S spans %d seeds (max 10000)" s n)
      else Ok (List.init n (fun k -> Int64.add a (Int64.of_int k)))
    | _ -> Error (Printf.sprintf "bad seed range %S (want a..b)" s)
  end
  | _ ->
    let parts = String.split_on_char ',' s in
    let seeds = List.filter_map int64 parts in
    if List.length seeds = List.length parts && seeds <> [] then Ok seeds
    else
      Error
        (Printf.sprintf "bad --seeds %S (want a..b, a,b,c or a single seed)" s)

let sweep_experiment id seeds_spec quick json jobs per_seed =
  match find id with
  | None -> 1
  | Some e -> begin
    match parse_seeds seeds_spec with
    | Error e ->
      Printf.eprintf "%s\n" e;
      1
    | Ok seeds ->
      let tables, ran =
        run_many ~jobs ~quick (List.map (fun s -> (e, s)) seeds) (fun _ t -> t)
      in
      if (not ran) || tables = [] then 1
      else begin
        if per_seed then List.iter (print_table json) tables;
        let agg = Table.aggregate tables in
        print_table json
          { agg with Table.notes = agg.Table.notes @ [ "seeds: " ^ seeds_spec ] };
        0
      end
  end

(* ------------------------------- health ------------------------------ *)

(* A dedicated scenario rather than an experiment rerun: the US backbone
   with the requested underlay loss, run until the hello protocol's
   estimators converge, then every endpoint's estimate as its node holds
   it, one per (link, node). *)
let health_main seed loss duration_s json =
  Strovl_expt.isolated
    (fun () ->
      let sim = Strovl_expt.Common.build ~seed (Strovl_topo.Gen.us_backbone ()) in
      if loss > 0. then Strovl_expt.Common.bernoulli_loss sim ~p:loss;
      Strovl_expt.Common.run_for sim (Time.sec duration_s);
      Strovl_expt.Common.link_health sim)
    (fun entries ->
      if json then List.iter (fun h -> print_endline (Health.json h)) entries
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
      0)

(* ------------------------------- series ------------------------------ *)

let contains ~sub s =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* Consecutive points of one run, in order: a channel's ring holds its
   runs one after the other. *)
let by_run pts =
  List.fold_right
    (fun (p : Metrics.point) acc ->
      match acc with
      | (run, ps) :: rest when run = p.Metrics.p_run -> (run, p :: ps) :: rest
      | _ -> (p.Metrics.p_run, [ p ]) :: acc)
    pts []

let mean ~n ~sum = if n = 0 then 0. else float_of_int sum /. float_of_int n

let series_main one window_ms buckets json filter =
  observe_one one ~series:(window_ms * 1000, buckets) (fun _table ->
      let chans =
        List.filter
          (fun (name, _, _) ->
            match filter with None -> true | Some sub -> contains ~sub name)
          (Metrics.series ())
      in
      if chans = [] then begin
        Printf.eprintf "no series points collected\n";
        1
      end
      else if json then begin
        List.iter
          (fun (name, labels, pts) ->
            List.iter
              (fun p -> print_endline (Export.point_json name labels p))
              pts)
          chans;
        0
      end
      else begin
        List.iter
          (fun (name, labels, pts) ->
            List.iter
              (fun (run, pts) ->
                let n = List.fold_left (fun a p -> a + p.Metrics.p_n) 0 pts in
                let sum = List.fold_left (fun a p -> a + p.Metrics.p_sum) 0 pts in
                let mx =
                  List.fold_left (fun a p -> max a p.Metrics.p_max) min_int pts
                in
                Printf.printf "%s{%s} run %d: %d buckets, n=%d mean=%.2f max=%d\n"
                  name
                  (String.concat ","
                     (List.map (fun (k, v) -> k ^ "=" ^ v) labels))
                  run (List.length pts) n (mean ~n ~sum) mx;
                List.iter
                  (fun p ->
                    Printf.printf
                      "  t=%8.1fms n=%6d sum=%10d max=%8d mean=%10.2f\n"
                      (float_of_int p.Metrics.p_t0 /. 1000.)
                      p.Metrics.p_n p.Metrics.p_sum p.Metrics.p_max
                      (mean ~n:p.Metrics.p_n ~sum:p.Metrics.p_sum))
                  pts)
              (by_run pts))
          chans;
        0
      end)

(* ------------------------------- audit ------------------------------- *)

(* One experiment's violation count and rendered report. The report,
   causal paths included, is rendered here inside the run's context: the
   ring it reads is dropped when the run ends. *)
let audit_report ~json (e : Strovl_expt.experiment) _table =
  let violations = Audit.finish () in
  let b = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer b in
  if json then
    List.iter
      (fun v ->
        Format.fprintf ppf "{\"experiment\":%s,%s@." (Export.json_str e.id)
          (let s = Audit.violation_json v in
           String.sub s 1 (String.length s - 1)))
      violations
  else begin
    Format.fprintf ppf "%-18s %s (%d trace events, %d violations)@." e.id
      (if violations = [] then "CLEAN" else "VIOLATIONS")
      (Trace.total ()) (List.length violations);
    List.iter
      (fun v ->
        Format.fprintf ppf "  %a@." Audit.pp_violation v;
        (* The causal path behind each packet-bearing violation. *)
        if v.Audit.v_flow <> Trace.no_flow then begin
          Format.fprintf ppf "  causal path:@.";
          Export.print_path ppf ~run:v.Audit.v_run ~flow:v.Audit.v_flow
            ~seq:v.Audit.v_seq
        end)
      violations
  end;
  (List.length violations, Buffer.contents b)

let audit_main ids quick seed capacity json =
  let targets, known = resolve ids in
  let reports, ran =
    run_many ~jobs:1 ~trace:capacity ~audit:true ~quick (at seed targets)
      (audit_report ~json)
  in
  List.iter (fun (_, report) -> print_string report) reports;
  let total = List.fold_left (fun acc (n, _) -> acc + n) 0 reports in
  if (not json) && ran && total = 0 && targets <> [] then
    Printf.printf "all audited experiments clean\n";
  if known && ran && total = 0 then 0 else 1

(* ------------------------------- traces ------------------------------ *)

(* "src:sport->dst:dport" (as trace, path and audit print a flow) or
   "src:sport:dst:dport" (no shell quoting needed) -> flow_id. *)
let parse_flow s =
  let ints s = List.map int_of_string_opt (String.split_on_char ':' s) in
  let fields =
    match String.index_opt s '>' with
    | None -> ints s
    | Some i when i > 0 && s.[i - 1] = '-' -> (
      let tail = String.sub s (i + 1) (String.length s - i - 1) in
      match (ints (String.sub s 0 (i - 1)), ints tail) with
      | [ src; sport ], [ dst; dport ] -> [ src; sport; dst; dport ]
      | _ -> [])
    | Some _ -> []
  in
  match fields with
  | [ Some fi_src; Some fi_sport; Some fi_dst; Some fi_dport ] ->
    Some { Trace.fi_src; fi_sport; fi_dst; fi_dport }
  | _ -> None

let trace_main one capacity json jsonl_path =
  observe_one one ~trace:capacity (fun table ->
      Option.iter
        (fun path ->
          let oc = open_out path in
          Export.jsonl oc;
          close_out oc;
          Printf.eprintf "wrote %d trace records to %s\n" (Trace.length ()) path)
        jsonl_path;
      print_table json table;
      if json then print_endline (Export.summary_json ())
      else begin
        Export.print_summary Format.std_formatter;
        match Export.sample_packet () with
        | Some (run, flow, seq) ->
          Format.printf "@.sampled packet path:@.";
          Export.print_path Format.std_formatter ~run ~flow ~seq
        | None -> ()
      end;
      0)

let path_main one capacity flow_s seq =
  (* Reject a malformed --flow before paying for the run. *)
  match Option.map (fun s -> (s, parse_flow s)) flow_s with
  | Some (s, None) ->
    Printf.eprintf
      "bad --flow %S (want src:sport->dst:dport or src:sport:dst:dport)\n" s;
    1
  | explicit ->
    observe_one one ~trace:capacity (fun _table ->
        let targets =
          match explicit with
          | Some (_, Some flow) ->
            (* an explicit packet gets one path per run that recorded it *)
            List.map (fun run -> (run, flow, seq)) (Export.runs_with ~flow ~seq)
          | _ -> Option.to_list (Export.sample_packet ())
        in
        match (targets, explicit) with
        | [], Some _ ->
          Printf.eprintf
            "no events for that flow/seq in the trace window (try `trace` \
             for live flows)\n";
          1
        | [], None ->
          Printf.eprintf "no packet to trace (empty flight recorder?)\n";
          1
        | targets, _ ->
          List.iter
            (fun (run, flow, seq) ->
              Export.print_path Format.std_formatter ~run ~flow ~seq)
            targets;
          0)

(* One line per experiment: the run's trace-digest determinism fingerprint,
   from a run traced at the recorder's default capacity (the path the
   tier-1 determinism tests check), so it is stable across invocations and
   [-j] at a fixed seed. @smoke diffs this output against the committed
   DIGESTS.quick to prove a refactor left the simulated fast path
   byte-identical. *)
let digest_main ids quick seed =
  let targets, known = resolve ids in
  let lines, ran =
    run_many ~jobs:1 ~trace:Trace.default_capacity ~quick (at seed targets)
      (fun (e : Strovl_expt.experiment) _table ->
        Printf.sprintf "%-18s %016Lx" e.id (Trace.digest ()))
  in
  List.iter print_endline lines;
  if known && ran then 0 else 1

(* -------------------------- cmdliner glue --------------------------- *)

let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "%S is not a positive integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let probability =
  let parse s =
    match float_of_string_opt s with
    | Some p when p >= 0. && p <= 1. -> Ok p
    | _ -> Error (`Msg (Printf.sprintf "%S is not a probability in [0,1]" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let ids =
  let doc =
    "Experiment ids (default: all; the pseudo-id $(b,all) also selects \
     every experiment). Use the list command to enumerate."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)

let id =
  let doc = "Experiment id (see the list command)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc)

let quick =
  let doc = "Reduced packet counts and sweeps (for smoke testing)." in
  Arg.(value & flag & info [ "quick"; "q" ] ~doc)

let seed =
  let doc = "Deterministic seed for the simulation RNG streams." in
  Arg.(value & opt int64 7L & info [ "seed" ] ~doc)

let json =
  let doc = "Machine-readable JSON output, one object per line." in
  Arg.(value & flag & info [ "json" ] ~doc)

let capacity =
  let doc = "Flight-recorder ring capacity (events retained)." in
  Arg.(value & opt pos_int Trace.default_capacity & info [ "capacity" ] ~doc)

let jobs =
  let doc =
    "Run up to $(docv) experiments concurrently on separate domains. Each \
     run gets a fresh observability context, so output is byte-identical \
     for every value of $(docv)."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* One experiment id with the flags that fix its run. *)
let one = Term.(const (fun id quick seed -> (id, quick, seed)) $ id $ quick $ seed)

let cmd name doc term = Cmd.v (Cmd.info name ~doc) term

let run_term = Term.(const run_experiments $ ids $ quick $ seed $ json $ jobs)

let sweep_cmd =
  let seeds_spec =
    let doc = "Seeds to sweep: $(b,a..b) (inclusive), $(b,a,b,c) or one seed." in
    Arg.(value & opt string "1..8" & info [ "seeds" ] ~docv:"SPEC" ~doc)
  in
  let per_seed =
    let doc = "Also print each per-seed table before the aggregate." in
    Arg.(value & flag & info [ "per-seed" ] ~doc)
  in
  cmd "sweep"
    "run one experiment across a seed range and aggregate the tables \
     (per-row mean/min/max)"
    Term.(
      const sweep_experiment $ id $ seeds_spec $ quick $ json $ jobs $ per_seed)

let health_cmd =
  let loss =
    let doc = "Inject this underlay per-packet loss probability." in
    Arg.(value & opt probability 0. & info [ "loss" ] ~doc)
  in
  let duration_s =
    let doc = "Simulated seconds to let the estimators converge." in
    Arg.(value & opt int 30 & info [ "duration" ] ~doc)
  in
  cmd "health" "print every overlay link endpoint's hello-protocol estimate"
    Term.(const health_main $ seed $ loss $ duration_s $ json)

let series_cmd =
  let window_ms =
    let doc = "Time-series bucket width in milliseconds." in
    Arg.(value & opt pos_int 100 & info [ "window-ms" ] ~doc)
  in
  let buckets =
    let doc = "Buckets retained per metric (ring capacity)." in
    Arg.(value & opt pos_int 600 & info [ "buckets" ] ~doc)
  in
  let filter =
    let doc = "Only metrics whose name contains $(docv)." in
    Arg.(value & opt (some string) None & info [ "filter" ] ~docv:"SUBSTR" ~doc)
  in
  cmd "series" "run an experiment with windowed time-series armed"
    Term.(const series_main $ one $ window_ms $ buckets $ json $ filter)

let trace_cmd =
  let jsonl_path =
    let doc = "Also dump every retained trace record as JSONL to $(docv)." in
    Arg.(value & opt (some string) None & info [ "jsonl" ] ~docv:"FILE" ~doc)
  in
  cmd "trace" "run an experiment traced; print its table, summary and a sample path"
    Term.(const trace_main $ one $ capacity $ json $ jsonl_path)

let path_cmd =
  let flow =
    let doc =
      "Flow to trace, as src:sport->dst:dport (as trace prints it; quote it \
       for the shell) or src:sport:dst:dport (default: a sampled packet)."
    in
    Arg.(value & opt (some string) None & info [ "flow" ] ~doc)
  in
  let seq =
    let doc = "Sequence number within --flow (-1: all of the flow)." in
    Arg.(value & opt int (-1) & info [ "seq" ] ~doc)
  in
  cmd "path" "reconstruct one packet's causal path through the overlay"
    Term.(const path_main $ one $ capacity $ flow $ seq)

let list_experiments () =
  List.iter
    (fun (e : Strovl_expt.experiment) -> Printf.printf "%-18s %s\n" e.id e.summary)
    Strovl_expt.all;
  0

let main =
  let doc = "structured overlay network experiments (Babay et al., ICDCS 2017)" in
  Cmd.group ~default:run_term
    (Cmd.info "strovl_run" ~doc)
    [
      cmd "run" "run paper-reproduction experiments" run_term;
      sweep_cmd;
      cmd "list" "list available experiments" Term.(const list_experiments $ const ());
      health_cmd;
      series_cmd;
      cmd "audit" "run experiments under the online invariant auditor"
        Term.(const audit_main $ ids $ quick $ seed $ capacity $ json);
      trace_cmd;
      path_cmd;
      cmd "digest" "print each experiment's deterministic trace digest (one line per id)"
        Term.(const digest_main $ ids $ quick $ seed);
    ]

let () = exit (Cmd.eval' main)
