(* Tests for the domain pool (Strovl_par.Pool) and its determinism
   contract: pool-scheduled experiment runs must produce byte-identical
   tables and trace digests to a sequential run. *)

module Pool = Strovl_par.Pool

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------ pool basics ---------------------------- *)

let pool_ordering () =
  (* Results land in input order regardless of the worker count. *)
  let input = Array.init 37 Fun.id in
  List.iter
    (fun jobs ->
      let out = Pool.map ~jobs (fun i x -> (i, x * x)) input in
      check_int "length" 37 (Array.length out);
      Array.iteri
        (fun i o ->
          match o with
          | Pool.Done (j, sq) ->
            check_int "index passed through" i j;
            check_int "slot order" (i * i) sq
          | Pool.Failed _ -> Alcotest.fail "job failed")
        out)
    [ 1; 2; 4; 64 ]

let pool_empty_and_singleton () =
  check_int "empty" 0 (Array.length (Pool.map ~jobs:4 (fun _ x -> x) [||]));
  match Pool.map ~jobs:4 (fun _ x -> x + 1) [| 41 |] with
  | [| Pool.Done 42 |] -> ()
  | _ -> Alcotest.fail "singleton"

let pool_failure_isolation () =
  (* A raising job is captured in its own slot; every sibling still runs
     and completes, on every worker count. *)
  let input = Array.init 20 Fun.id in
  List.iter
    (fun jobs ->
      let out =
        Pool.map ~jobs
          (fun _ x ->
            if x = 7 then failwith "job seven exploded";
            x * 10)
          input
      in
      Array.iteri
        (fun i o ->
          match (i, o) with
          | 7, Pool.Failed { exn; _ } ->
            check_bool "message preserved" true
              (let needle = "job seven exploded" in
               let n = String.length exn and m = String.length needle in
               let rec go k =
                 k + m <= n && (String.sub exn k m = needle || go (k + 1))
               in
               go 0)
          | 7, Pool.Done _ -> Alcotest.fail "job 7 should have failed"
          | i, Pool.Done v -> check_int "sibling unaffected" (i * 10) v
          | _, Pool.Failed { exn; _ } -> Alcotest.fail ("sibling failed: " ^ exn))
        out)
    [ 1; 2; 4 ]

let pool_outcome_exn () =
  check_int "done unwraps" 3 (Pool.outcome_exn (Pool.Done 3));
  Alcotest.check_raises "failed raises" (Failure "boom") (fun () ->
      ignore (Pool.outcome_exn (Pool.Failed { exn = "boom"; backtrace = "" })))

(* --------------------- parallel determinism contract -------------------- *)

(* `run all -j 4` must produce bit-identical tables AND trace digests to
   `-j 1` with the same seed: per-run contexts make a run's output
   independent of which domain executed it and what ran there before. *)
let parallel_determinism () =
  let seed = 3L in
  let render jobs =
    Strovl_expt.run_many ~jobs ~trace:Strovl_obs.Trace.default_capacity
      ~quick:true
      (List.map (fun e -> (e, seed)) Strovl_expt.all)
      (fun _ table ->
        Printf.sprintf "%s digest=%Lx" (Strovl_expt.Table.to_json table)
          (Strovl_obs.Trace.digest ()))
    |> Array.to_list
    |> List.map Pool.outcome_exn
  in
  let seq = render 1 in
  let par = render 4 in
  check_int "same experiment count" (List.length seq) (List.length par);
  List.iteri
    (fun i (s, p) -> check_string (Printf.sprintf "experiment %d" i) s p)
    (List.combine seq par);
  (* The digests must be real fingerprints, not all-empty rings. *)
  check_bool "some experiment produced trace events" true
    (List.exists (fun s -> not (String.length s = 0)) seq
    && List.exists
         (fun s ->
           match String.rindex_opt s '=' with
           | Some i -> String.sub s (i + 1) (String.length s - i - 1) <> "0"
           | None -> false)
         seq)

(* Two runs scheduled one after the other on the same domain see fresh
   observability state: handles created by the first are gone, counts do
   not leak into the second. *)
let same_domain_isolation () =
  let counts =
    Pool.map ~jobs:1
      (fun _ () ->
        Strovl_obs.Ctx.isolate (fun () ->
            let c = Strovl_obs.Metrics.counter "par_test_leak" in
            Strovl_obs.Metrics.Counter.add c 5;
            Strovl_obs.Metrics.find_counter "par_test_leak"))
      [| (); (); () |]
  in
  Array.iter
    (fun o -> check_int "each run counts only itself" 5 (Pool.outcome_exn o))
    counts;
  check_int "nothing leaked to the caller" 0
    (Strovl_obs.Metrics.find_counter "par_test_leak")

(* An isolated run leaves nothing of itself reachable: the domain's
   engine, which its rows ran on, is dropped, and the recorder's clock,
   which that engine bound to read its own time, is back to the constant 0
   of a fresh domain, so the engine (and with it every node, ring and
   packet of the run) is collected. *)
let isolated_run_releases_engine () =
  let held = Weak.create 1 in
  let[@inline never] run () =
    Strovl_expt.isolated
      (fun () ->
        Strovl_expt.Common.build ~seed:5L (Strovl_topo.Gen.us_backbone ()))
      (fun sim -> Weak.set held 0 (Some sim.Strovl_expt.Common.engine))
  in
  run ();
  check_bool "engine held before collection" true (Weak.check held 0);
  Gc.full_major ();
  check_bool "engine collected" false (Weak.check held 0);
  check_int "clock reads 0" 0 (Strovl_obs.Trace.now ());
  check_int "run index back to 0" 0 (Strovl_obs.Trace.run ())

(* Rows of one experiment share the domain's engine: the next row's
   Common.build resets it, dropping every pending event of the row before
   and with them the last references to that row's overlay. *)
let next_row_releases_net () =
  let held = Weak.create 1 in
  let[@inline never] row () =
    let sim =
      Strovl_expt.Common.build ~seed:5L (Strovl_topo.Gen.us_backbone ())
    in
    Weak.set held 0 (Some sim.Strovl_expt.Common.net);
    sim.Strovl_expt.Common.engine
  in
  Strovl_expt.isolated
    (fun () ->
      let e1 = row () in
      Gc.full_major ();
      check_bool "net held by its pending events" true (Weak.check held 0);
      let next =
        Strovl_expt.Common.build ~seed:6L (Strovl_topo.Gen.chain ~n:2
           ~hop_delay:(Strovl_sim.Time.ms 10))
      in
      check_bool "the next row runs on the same engine" true
        (next.Strovl_expt.Common.engine == e1);
      Gc.full_major ();
      check_bool "net collected after the next row's reset" false
        (Weak.check held 0))
    Fun.id

let () =
  Alcotest.run "strovl_par"
    [
      ( "pool",
        [
          Alcotest.test_case "deterministic ordering" `Quick pool_ordering;
          Alcotest.test_case "empty and singleton" `Quick pool_empty_and_singleton;
          Alcotest.test_case "per-job failure isolation" `Quick
            pool_failure_isolation;
          Alcotest.test_case "outcome_exn" `Quick pool_outcome_exn;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "run all -j 4 == -j 1 (tables + digests)" `Slow
            parallel_determinism;
          Alcotest.test_case "same-domain run isolation" `Quick
            same_domain_isolation;
          Alcotest.test_case "isolated run releases its engine" `Quick
            isolated_run_releases_engine;
          Alcotest.test_case "next row releases the last row's net" `Quick
            next_row_releases_net;
        ] );
    ]
