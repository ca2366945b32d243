(* Disabled-observability overhead + perf-regression gate, run from the
   @smoke alias.

   With tracing disarmed and metrics off, each instrumentation site in the
   forwarding path must cost one ref dereference and a branch. This check
   measures the full 4-hop SEA->MIA forward path (same fixture as the
   perhop-cost bench) and fails if it exceeds a generous absolute bound, or
   if any trace event or time-series bucket leaked out while the
   corresponding layer was off.

   It additionally gates against the committed BENCH.json trajectory
   (regenerate with `dune exec bench/throughput.exe -- --json BENCH.json`):
   a >25% regression of the forward path against the recorded
   forward-path-SEA-MIA-4hops entry fails the gate. Wall time is noisy on
   shared machines, so the ns/op side measures min-of-N (minimum over
   repeated blocks discards scheduler interference, the only noise that
   exists is additive) while minor words/op is deterministic and compared
   directly. It is a smoke gate against gross regressions, not a precision
   benchmark. *)

module P = Strovl.Packet
module Gen = Strovl_topo.Gen

(* --- minimal BENCH.json field extraction (no JSON dependency) --- *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Some s

let find_from s pos sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some (i + m)
    else go (i + 1)
  in
  go pos

(* Value of ["key": <number>] after position [pos]. *)
let number_field s pos key =
  match find_from s pos ("\"" ^ key ^ "\":") with
  | None -> None
  | Some p ->
    let n = String.length s in
    let rec skip i = if i < n && s.[i] = ' ' then skip (i + 1) else i in
    let start = skip p in
    let rec fin i =
      if i < n && (match s.[i] with '0' .. '9' | '.' | '-' | 'e' | 'E' | '+' -> true | _ -> false)
      then fin (i + 1)
      else i
    in
    let stop = fin start in
    if stop = start then None
    else float_of_string_opt (String.sub s start (stop - start))

(* The recorded current ("after") numbers live under "benchmarks"; the
   frozen pre-overhaul numbers under "baseline" reuse the same bench name,
   so anchor the scan past the "benchmarks" key. *)
let recorded_forward_path json =
  match find_from json 0 "\"benchmarks\"" with
  | None -> None
  | Some p -> (
    match find_from json p "\"forward-path-SEA-MIA-4hops\"" with
    | None -> None
    | Some q -> (
      match (number_field json q "ns_per_op", number_field json q "minor_words_per_op") with
      | Some ns, Some words -> Some (ns, words)
      | _ -> None))

(* The whole measurement runs on a dedicated, freshly spawned domain while
   the calling domain sits idle in [join]: the timing loop never shares its
   domain with anything else, and the zero-leak checks below inspect the
   measuring domain's own (domain-local) observability state — a fresh
   domain must start pristine, which is exactly the per-run isolation
   contract behind `-j N`. *)
let measure () =
  Strovl_obs.Trace.disable ();
  Strovl_obs.Metrics.set_enabled false;
  let engine = Strovl_sim.Engine.create () in
  let config =
    {
      Strovl.Net.default_config with
      Strovl.Net.node =
        { Strovl.Node.default_config with Strovl.Node.proc_delay = 0 };
    }
  in
  let net = Strovl.Net.create ~config engine (Gen.us_backbone ()) in
  Strovl.Node.register_session (Strovl.Net.node net 8) ~port:9 ~deliver:ignore;
  let flow = { P.f_src = 0; f_sport = 1; f_dest = P.To_node 8; f_dport = 9 } in
  let seq = ref 0 in
  let one_packet () =
    incr seq;
    let pkt =
      P.make ~flow ~routing:P.Link_state ~service:P.Best_effort ~seq:!seq
        ~sent_at:(Strovl_sim.Engine.now engine) ~bytes:1200 ()
    in
    ignore (Strovl.Node.originate (Strovl.Net.node net 0) pkt);
    Strovl_sim.Engine.run engine
  in
  (* Warm up routing tables, protocol instances and the allocator. *)
  for _ = 1 to 1000 do
    one_packet ()
  done;
  (* Min-of-N blocks: minor words/op is deterministic, ns/op keeps the
     quietest block. *)
  let blocks = 5 and iters = 10_000 in
  let best_ns = ref infinity and best_words = ref infinity in
  for _ = 1 to blocks do
    let minor0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      one_packet ()
    done;
    let ns = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters in
    let words = (Gc.minor_words () -. minor0) /. float_of_int iters in
    if ns < !best_ns then best_ns := ns;
    if words < !best_words then best_words := words
  done;
  let ns_per_op = !best_ns and words_per_op = !best_words in
  let delivered =
    (Strovl.Node.counters (Strovl.Net.node net 8)).Strovl.Node.delivered
  in
  Printf.printf
    "smoke-overhead: forward-path 4 hops: %.0f ns/op, %.1f minor words/op \
     (%d delivered)\n"
    ns_per_op words_per_op delivered;
  let failed = ref false in
  (* The paper's SII-D budget is <1ms per hop; the simulated path costs a
     few µs of real compute. 40µs/op (10µs per hop) only trips on a gross
     regression, not on machine noise. *)
  if ns_per_op > 40_000. then begin
    Printf.printf "FAIL: forward path %.0f ns/op exceeds 40000 ns/op bound\n"
      ns_per_op;
    failed := true
  end;
  (* 25% regression gate against the committed benchmark trajectory. *)
  (match read_file "BENCH.json" with
  | None ->
    print_endline
      "smoke-overhead: BENCH.json not found; skipping regression gate"
  | Some json -> (
    match recorded_forward_path json with
    | None ->
      print_endline
        "smoke-overhead: no forward-path-SEA-MIA-4hops entry in BENCH.json; \
         skipping regression gate";
    | Some (rec_ns, rec_words) ->
      Printf.printf
        "smoke-overhead: BENCH.json records %.0f ns/op, %.1f words/op\n"
        rec_ns rec_words;
      (* Minor words/op is exactly reproducible, so 25% is a strict gate —
         this is the one that catches a reintroduced per-event or per-hop
         allocation. The ns side keeps the 25% criterion under an absolute
         noise floor: on a dedicated domain with the rest of the process
         idle in [join], min-of-N blocks on this fixture stay under
         ~2.3 us/op even right after the @smoke experiments churned the
         heap, so anything below 3 us/op is machine state, not code
         (tightened from the pre-pool 4 us floor). *)
      let ns_bound = Float.max (1.25 *. rec_ns) 3_000. in
      if ns_per_op > ns_bound then begin
        Printf.printf
          "FAIL: forward path %.0f ns/op regressed >25%% vs BENCH.json \
           (%.0f ns/op, gate %.0f)\n"
          ns_per_op rec_ns ns_bound;
        failed := true
      end;
      if words_per_op > 1.25 *. rec_words then begin
        Printf.printf
          "FAIL: forward path %.1f minor words/op regressed >25%% vs \
           BENCH.json (%.1f words/op)\n"
          words_per_op rec_words;
        failed := true
      end));
  if Strovl_obs.Trace.total () <> 0 then begin
    Printf.printf "FAIL: %d trace events emitted while recorder disabled\n"
      (Strovl_obs.Trace.total ());
    failed := true
  end;
  if delivered = 0 then begin
    print_endline "FAIL: nothing delivered; fixture broken";
    failed := true
  end;
  (* The time-series layer was never enabled: no channel may hold buckets. *)
  if Strovl_obs.Series.channels () <> [] then begin
    Printf.printf "FAIL: %d series channels collected buckets while off\n"
      (List.length (Strovl_obs.Series.channels ()));
    failed := true
  end;
  !failed

let () =
  let failed = Domain.join (Domain.spawn measure) in
  if failed then exit 1;
  print_endline "smoke-overhead: OK"
