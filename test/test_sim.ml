(* Unit and property tests for the discrete-event simulation substrate. *)

open Strovl_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------- Time ------------------------------- *)

let time_units () =
  check_int "us" 7 (Time.us 7);
  check_int "ms" 3_000 (Time.ms 3);
  check_int "sec" 2_000_000 (Time.sec 2);
  check_int "of_ms_float rounds" 1_500 (Time.of_ms_float 1.5);
  check_int "of_sec_float" 250_000 (Time.of_sec_float 0.25);
  check_float "to_ms_float" 1.5 (Time.to_ms_float 1_500);
  check_float "to_sec_float" 0.25 (Time.to_sec_float 250_000)

let time_arith () =
  check_int "add" 30 (Time.add 10 20);
  check_int "sub may go negative" (-10) (Time.sub 10 20);
  check_int "min" 10 (Time.min 10 20);
  check_int "max" 20 (Time.max 10 20);
  check_bool "compare" true (Time.compare 1 2 < 0)

let time_pp () =
  Alcotest.(check string) "us" "42us" (Time.to_string 42);
  Alcotest.(check string) "ms" "1.5ms" (Time.to_string 1_500);
  Alcotest.(check string) "s" "2s" (Time.to_string 2_000_000);
  Alcotest.(check string) "inf" "inf" (Time.to_string Time.infinity)

(* -------------------------------- Rng ------------------------------- *)

let rng_deterministic () =
  let a = Rng.create 99L and b = Rng.create 99L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let rng_split_named_stable () =
  let a = Rng.create 5L and b = Rng.create 5L in
  let ca = Rng.split_named a "x" and cb = Rng.split_named b "x" in
  Alcotest.(check int64) "same named child" (Rng.int64 ca) (Rng.int64 cb);
  let a = Rng.create 5L in
  let c1 = Rng.split_named a "x" in
  let a2 = Rng.create 5L in
  let c2 = Rng.split_named a2 "y" in
  check_bool "different names differ" true (Rng.int64 c1 <> Rng.int64 c2)

let rng_bernoulli_freq () =
  let rng = Rng.create 1L in
  let n = 20_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let f = float_of_int !hits /. float_of_int n in
  check_bool "p=0.3 within 2%" true (Float.abs (f -. 0.3) < 0.02)

let rng_exponential_mean () =
  let rng = Rng.create 2L in
  let n = 20_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential rng 50.
  done;
  let mean = !acc /. float_of_int n in
  check_bool "mean ~50" true (Float.abs (mean -. 50.) < 2.)

let rng_shuffle_permutes () =
  let rng = Rng.create 3L in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted;
  check_bool "actually shuffled" true (arr <> Array.init 50 (fun i -> i))

let qcheck_rng_bounds =
  QCheck.Test.make ~name:"rng int/float bounds" ~count:500
    QCheck.(pair small_int (int_bound 1000))
    (fun (seed, bound) ->
      let bound = bound + 1 in
      let rng = Rng.create (Int64.of_int seed) in
      let i = Rng.int rng bound in
      let f = Rng.float rng (float_of_int bound) in
      i >= 0 && i < bound && f >= 0. && f < float_of_int bound)

(* ------------------------------- Heap ------------------------------- *)

(* Pops everything as (time, seq, payload), in pop order. *)
let heap_drain h =
  let rec go acc =
    if Heap.is_empty h then List.rev acc
    else begin
      let t = Heap.min_time h and s = Heap.min_seq h in
      let v = Heap.pop_min h in
      go ((t, s, v) :: acc)
    end
  in
  go []

let heap_sorted_order () =
  let h = Heap.create () in
  List.iteri (fun i t -> Heap.push h ~time:t ~seq:i i) [ 5; 1; 9; 3; 7 ];
  Alcotest.(check (list int)) "ascending" [ 1; 3; 5; 7; 9 ]
    (List.map (fun (t, _, _) -> t) (heap_drain h))

let heap_fifo_ties () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h ~time:42 ~seq:i i
  done;
  Alcotest.(check (list int)) "fifo among equal times"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.map (fun (_, _, v) -> v) (heap_drain h))

let heap_peek_size () =
  let h = Heap.create () in
  check_bool "empty" true (Heap.is_empty h);
  Heap.push h ~time:3 ~seq:0 10;
  Heap.push h ~time:1 ~seq:1 11;
  check_int "size" 2 (Heap.size h);
  check_int "min time" 1 (Heap.min_time h);
  check_int "min seq" 1 (Heap.min_seq h);
  check_int "peek does not remove" 2 (Heap.size h);
  check_int "pop_min returns the minimum's payload" 11 (Heap.pop_min h);
  Heap.clear h;
  check_bool "cleared" true (Heap.is_empty h);
  Alcotest.check_raises "pop_min on empty"
    (Invalid_argument "Heap.pop_min: empty") (fun () ->
      ignore (Heap.pop_min h))

let qcheck_heap_sorted =
  QCheck.Test.make ~name:"heap drains sorted" ~count:200
    QCheck.(list (pair (int_bound 1000) (int_bound 1000)))
    (fun items ->
      let h = Heap.create () in
      List.iteri (fun i (t, _) -> Heap.push h ~time:t ~seq:i t) items;
      let out = List.map (fun (t, _, _) -> t) (heap_drain h) in
      out = List.sort compare out)

(* The reference model for [Heap]'s pop order: a binary heap whose sift
   down swaps an entry with the smallest of itself, its left and its right
   child, taken in that order. Equal (time, seq) keys pop in an order only
   the heap's shape decides, and Dijkstra's tie-breaking depends on it, so
   [Heap] must pop payloads in exactly this model's order. *)
module Swap_heap = struct
  type t = {
    times : int array;
    seqs : int array;
    vals : int array;
    mutable len : int;
  }

  let create cap =
    { times = Array.make cap 0; seqs = Array.make cap 0; vals = Array.make cap 0; len = 0 }

  let less h a b =
    h.times.(a) < h.times.(b)
    || (h.times.(a) = h.times.(b) && h.seqs.(a) < h.seqs.(b))

  let swap h a b =
    let t = h.times.(a) and s = h.seqs.(a) and v = h.vals.(a) in
    h.times.(a) <- h.times.(b);
    h.seqs.(a) <- h.seqs.(b);
    h.vals.(a) <- h.vals.(b);
    h.times.(b) <- t;
    h.seqs.(b) <- s;
    h.vals.(b) <- v

  let push h ~time ~seq v =
    let i = ref h.len in
    h.times.(!i) <- time;
    h.seqs.(!i) <- seq;
    h.vals.(!i) <- v;
    h.len <- h.len + 1;
    while !i > 0 && less h !i ((!i - 1) / 2) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < h.len && less h l !smallest then smallest := l;
    if r < h.len && less h r !smallest then smallest := r;
    if !smallest <> i then begin
      swap h i !smallest;
      sift_down h !smallest
    end

  let pop h =
    let r = (h.times.(0), h.seqs.(0), h.vals.(0)) in
    h.len <- h.len - 1;
    if h.len > 0 then begin
      swap h 0 h.len;
      sift_down h 0
    end;
    r
end

(* [Some (time, seq)] pushes with the next payload, [None] pops. Keys come
   from tiny ranges so that many entries share a (time, seq) key. *)
let qcheck_heap_model =
  QCheck.Test.make ~name:"heap pops in the swap-based heap's order" ~count:300
    QCheck.(
      list_of_size Gen.(int_bound 300)
        (option ~ratio:0.7 (pair (int_bound 4) (int_bound 2))))
    (fun ops ->
      let h = Heap.create () and m = Swap_heap.create (List.length ops) in
      let popped = ref [] and expected = ref [] in
      List.iteri
        (fun i op ->
          match op with
          | Some (time, seq) ->
            Heap.push h ~time ~seq i;
            Swap_heap.push m ~time ~seq i
          | None ->
            if m.Swap_heap.len > 0 then begin
              let t = Heap.min_time h and s = Heap.min_seq h in
              popped := (t, s, Heap.pop_min h) :: !popped;
              expected := Swap_heap.pop m :: !expected
            end)
        ops;
      while m.Swap_heap.len > 0 do
        expected := Swap_heap.pop m :: !expected
      done;
      List.rev_append !popped (heap_drain h) = List.rev !expected)

(* ------------------------------ Engine ------------------------------ *)

let engine_order_and_clock () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:30 (fun () -> log := (3, Engine.now e) :: !log));
  ignore (Engine.schedule e ~delay:10 (fun () -> log := (1, Engine.now e) :: !log));
  ignore (Engine.schedule e ~delay:20 (fun () -> log := (2, Engine.now e) :: !log));
  Engine.run e;
  Alcotest.(check (list (pair int int)))
    "ordered with clock" [ (1, 10); (2, 20); (3, 30) ] (List.rev !log)

let engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:5 (fun () -> fired := true) in
  Engine.cancel e h;
  check_bool "pending reports cancelled" false (Engine.is_pending e h);
  Engine.run e;
  check_bool "cancelled did not fire" false !fired

let engine_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  List.iter
    (fun d -> ignore (Engine.schedule e ~delay:d (fun () -> incr count)))
    [ 10; 20; 30; 40 ];
  Engine.run ~until:25 e;
  check_int "only events <= until" 2 !count;
  check_int "clock advances to until" 25 (Engine.now e);
  Engine.run e;
  check_int "drains the rest" 4 !count

let engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~delay:10 (fun () ->
         log := "outer" :: !log;
         ignore (Engine.schedule e ~delay:5 (fun () -> log := "inner" :: !log))));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  check_int "clock" 15 (Engine.now e)

let engine_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 5 do
    ignore (Engine.schedule e ~delay:7 (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3; 4; 5 ] (List.rev !log)

let engine_errors () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:10 ignore);
  Engine.run e;
  Alcotest.check_raises "schedule_at in the past"
    (Invalid_argument "Engine.schedule_at: at=5 < now=10") (fun () ->
      ignore (Engine.schedule_at e ~at:5 ignore));
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      ignore (Engine.schedule e ~delay:(-1) ignore))

let engine_step_and_pending () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:1 ignore);
  ignore (Engine.schedule e ~delay:2 ignore);
  check_int "pending" 2 (Engine.pending_events e);
  check_bool "step" true (Engine.step e);
  check_int "pending after step" 1 (Engine.pending_events e);
  let run = Strovl_obs.Trace.run () in
  Engine.reset e ~seed:9L;
  check_int "reset starts a run" (run + 1) (Strovl_obs.Trace.run ());
  check_int "clock back to 0" 0 (Engine.now e);
  check_bool "step empty" false (Engine.step e);
  Alcotest.(check int64)
    "root rng as created" (Rng.int64 (Engine.rng (Engine.create ~seed:9L ())))
    (Rng.int64 (Engine.rng e))

(* A fresh engine holds a 1,024-bucket wheel: 2,116 reachable words when
   this bound was set (66,594 with the eager 32,768-bucket wheel before
   it). Near misses (schedules that fall to the heap lane but within
   32,768 us) grow it once to full reach, so 2,100 of them leave an engine
   holding the two full bucket arrays. *)
let engine_words () =
  let e = Engine.create () in
  let fresh = Obj.reachable_words (Obj.repr e) in
  if fresh > 2_222 then
    Alcotest.failf "fresh engine: %d reachable words (bound 2222)" fresh;
  for i = 1 to 2_100 do
    ignore (Engine.schedule e ~delay:(2_000 + i) ignore)
  done;
  let grown = Obj.reachable_words (Obj.repr e) in
  check_bool (Printf.sprintf "grown wheel: %d words > 65536" grown) true
    (grown > 65_536);
  Engine.run e;
  check_int "drained" 0 (Engine.pending_events e)

(* The engine against a plain sorted-list model keyed on (time, seq). A
   program is a list of top-level operations; a scheduled event carries
   the operations its callback runs (nested schedules and cancels). Delays
   come from a few classes so that many events share a time, some sit
   on either side of the small and the full wheel's reach, and some lie
   more than 1,024 us apart: in the grown wheel the next occupied bucket
   then sits under another summary word, and the search wraps past the
   wheel's end. Every program runs on a fresh (small) and on a reset
   (grown) wheel. A [Burst] of
   more near misses than [engine_words] needs crosses the growth
   threshold while events are pending in both lanes. A [Reset] starts a
   new run: the model empties its queue and puts its clock and seq back
   to 0. *)
type op =
  | Sched of int * op list (* delay, what the callback does *)
  | Sched_at of int * op list (* at = now + offset *)
  | Cancel of int (* the k-th event scheduled so far, modulo their number *)
  | Burst of int * int (* count, base delay *)
  | Run_until of int (* until = now + offset *)
  | Step
  | Reset

let burst_delay base j = base + (j * 7 mod 1_500)

let gen_program =
  let open QCheck.Gen in
  let delay =
    frequency
      [
        (3, int_bound 3);
        (3, map (fun k -> k * 1_000) (int_bound 100));
        (2, int_range 1_020 1_030);
        (2, int_range 32_760 32_775);
        (2, int_range 1_025 32_767);
        (2, int_bound 100_000);
      ]
  in
  let rec nested depth =
    if depth = 0 then return []
    else
      list_size (int_bound 2)
        (frequency
           [
             (3, map2 (fun d k -> Sched (d, k)) delay (nested (depth - 1)));
             (1, map2 (fun d k -> Sched_at (d, k)) delay (nested (depth - 1)));
             (1, map (fun i -> Cancel i) nat);
           ])
  in
  let top =
    frequency
      [
        (5, map2 (fun d k -> Sched (d, k)) delay (nested 2));
        (2, map2 (fun d k -> Sched_at (d, k)) delay (nested 2));
        (2, map (fun i -> Cancel i) nat);
        (2, map (fun d -> Run_until d) delay);
        (2, return Step);
        (1, return Reset);
      ]
  in
  let burst =
    map2 (fun n b -> Burst (n, b)) (int_range 2_100 2_300) (int_range 1_025 20_000)
  in
  frequency
    [
      (3, list_size (int_range 1 60) top);
      ( 1,
        map3
          (fun a b c -> a @ (b :: c))
          (list_size (int_range 1 30) top)
          burst
          (list_size (int_range 1 30) top) );
    ]

let rec pp_op = function
  | Sched (d, k) -> Printf.sprintf "Sched (%d, [%s])" d (pp_ops k)
  | Sched_at (d, k) -> Printf.sprintf "Sched_at (%d, [%s])" d (pp_ops k)
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | Burst (n, b) -> Printf.sprintf "Burst (%d, %d)" n b
  | Run_until d -> Printf.sprintf "Run_until %d" d
  | Step -> "Step"
  | Reset -> "Reset"

and pp_ops ops = String.concat "; " (List.map pp_op ops)

(* Both interpreters return the visited (time, seq) in order, then
   (now, pending_events, next_event_time) after every top-level op, then
   the clock once the queue is drained. The seq of an event is the number
   of events scheduled before it in its run. *)
let run_engine e ops =
  let handles = ref [||] and n = ref 0 in
  let visits = ref [] and obs = ref [] in
  let rec nested = function
    | Sched (d, kids) -> sched (Engine.schedule e ~delay:d) kids
    | Sched_at (d, kids) -> sched (Engine.schedule_at e ~at:(Engine.now e + d)) kids
    | Cancel i -> if !n > 0 then Engine.cancel e !handles.(i mod !n)
    | Burst (count, base) ->
      for j = 0 to count - 1 do
        nested (Sched (burst_delay base j, []))
      done
    | Run_until _ | Step | Reset -> invalid_arg "run_engine: control op nested"
  and sched schedule kids =
    let seq = !n in
    let h =
      schedule (fun () ->
          visits := (Engine.now e, seq) :: !visits;
          List.iter nested kids)
    in
    if seq = Array.length !handles then
      handles := Array.append !handles (Array.make (max 16 seq) h);
    !handles.(seq) <- h;
    incr n
  in
  List.iter
    (fun op ->
      (match op with
      | Run_until d -> Engine.run ~until:(Engine.now e + d) e
      | Step -> ignore (Engine.step e)
      | Reset ->
        Engine.reset e ~seed:1L;
        n := 0
      | op -> nested op);
      obs := (Engine.now e, Engine.pending_events e, Engine.next_event_time e) :: !obs)
    ops;
  Engine.run e;
  (List.rev !visits, List.rev !obs, Engine.now e)

let run_model ops =
  let clock = ref 0 and pending = ref [] and n = ref 0 in
  let cancelled = Hashtbl.create 64 in
  let visits = ref [] and obs = ref [] in
  let add at kids =
    let key = (at, !n) in
    let rec insert = function
      | ((t, q, _) as x) :: rest when compare (t, q) key < 0 -> x :: insert rest
      | l -> (at, !n, kids) :: l
    in
    pending := insert !pending;
    incr n
  in
  let rec nested = function
    | Sched (d, kids) | Sched_at (d, kids) -> add (!clock + d) kids
    | Cancel i -> if !n > 0 then Hashtbl.replace cancelled (i mod !n) ()
    | Burst (count, base) ->
      for j = 0 to count - 1 do
        nested (Sched (burst_delay base j, []))
      done
    | Run_until _ | Step | Reset -> invalid_arg "run_model: control op nested"
  in
  let next () = match !pending with [] -> None | (t, _, _) :: _ -> Some t in
  let step () =
    match !pending with
    | [] -> false
    | (t, q, kids) :: rest ->
      pending := rest;
      clock := t;
      if not (Hashtbl.mem cancelled q) then begin
        visits := (t, q) :: !visits;
        List.iter nested kids
      end;
      true
  in
  let run_until until =
    while match next () with Some t -> t <= until | None -> false do
      ignore (step ())
    done;
    if until > !clock then clock := until
  in
  List.iter
    (fun op ->
      (match op with
      | Run_until d -> run_until (!clock + d)
      | Step -> ignore (step ())
      | Reset ->
        pending := [];
        clock := 0;
        n := 0;
        Hashtbl.reset cancelled
      | op -> nested op);
      obs := (!clock, List.length !pending, next ()) :: !obs)
    ops;
  while step () do
    ()
  done;
  (List.rev !visits, List.rev !obs, !clock)

(* A used engine: its wheel grown and its pool filled, with events pending
   in both lanes when it is reset. None of them may run afterwards. *)
let reset_engine () =
  let e = Engine.create () in
  for i = 1 to 2_100 do
    ignore
      (Engine.schedule e ~delay:(2_000 + i) (fun () ->
           failwith "an event from before the reset ran"))
  done;
  ignore (Engine.schedule e ~delay:3 (fun () -> failwith "a wheel event ran"));
  Engine.reset e ~seed:1L;
  e

(* A reset engine is checked against the model as a fresh one is. *)
let qcheck_engine_model =
  QCheck.Test.make ~name:"engine matches the sorted-list model" ~count:200
    (QCheck.make ~print:pp_ops gen_program)
    (fun ops ->
      let model = run_model ops in
      run_engine (Engine.create ()) ops = model
      && run_engine (reset_engine ()) ops = model)

(* ------------------------------ Stats ------------------------------- *)

let stats_series_basics () =
  let s = Stats.Series.create () in
  check_bool "empty" true (Stats.Series.is_empty s);
  List.iter (Stats.Series.add s) [ 1.; 2.; 3.; 4.; 5. ];
  check_int "count" 5 (Stats.Series.count s);
  check_float "mean" 3. (Stats.Series.mean s);
  check_float "min" 1. (Stats.Series.min s);
  check_float "max" 5. (Stats.Series.max s);
  check_float "median" 3. (Stats.Series.median s);
  check_float "sum" 15. (Stats.Series.sum s);
  check_float "stddev" (sqrt 2.5) (Stats.Series.stddev s)

let stats_percentile_nearest_rank () =
  let s = Stats.Series.create () in
  for i = 1 to 100 do
    Stats.Series.add s (float_of_int i)
  done;
  check_float "p50" 50. (Stats.Series.percentile s 50.);
  check_float "p99" 99. (Stats.Series.percentile s 99.);
  check_float "p100" 100. (Stats.Series.percentile s 100.);
  check_float "p1" 1. (Stats.Series.percentile s 1.)

let stats_jitter () =
  let s = Stats.Series.create () in
  List.iter (Stats.Series.add s) [ 10.; 12.; 9.; 9. ];
  (* |12-10| + |9-12| + |9-9| = 5 over 3 gaps *)
  check_float "jitter" (5. /. 3.) (Stats.Series.jitter s)

let stats_clear_and_counter () =
  let s = Stats.Series.create () in
  Stats.Series.add s 1.;
  Stats.Series.clear s;
  check_int "cleared" 0 (Stats.Series.count s);
  check_float "empty mean" 0. (Stats.Series.mean s);
  check_float "ratio" 0.5 (Stats.ratio 1 2);
  check_float "ratio den 0" 0. (Stats.ratio 1 0)

(* Naive sort-based oracles for Series summary queries. *)
let oracle_percentile xs p =
  match xs with
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    a.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

let oracle_jitter xs =
  match xs with
  | [] | [ _ ] -> 0.
  | x :: rest ->
    let diffs, _ =
      List.fold_left (fun (acc, prev) x -> (acc +. Float.abs (x -. prev), x)) (0., x) rest
    in
    diffs /. float_of_int (List.length rest)

let series_of xs =
  let s = Stats.Series.create () in
  List.iter (Stats.Series.add s) xs;
  s

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs b)

let sample_gen =
  QCheck.(list_of_size Gen.(0 -- 60) (map float_of_int (int_range (-500) 500)))

let qcheck_percentile_oracle =
  QCheck.Test.make ~name:"percentile matches sort oracle" ~count:500
    QCheck.(pair sample_gen (float_bound_inclusive 100.))
    (fun (xs, p) ->
      close (Stats.Series.percentile (series_of xs) p) (oracle_percentile xs p))

let qcheck_median_oracle =
  QCheck.Test.make ~name:"median is nearest-rank p50" ~count:500 sample_gen
    (fun xs -> close (Stats.Series.median (series_of xs)) (oracle_percentile xs 50.))

let qcheck_jitter_oracle =
  QCheck.Test.make ~name:"jitter matches consecutive-diff oracle" ~count:500
    sample_gen (fun xs -> close (Stats.Series.jitter (series_of xs)) (oracle_jitter xs))

let stats_oracle_edges () =
  let empty = series_of [] in
  check_float "empty percentile" 0. (Stats.Series.percentile empty 99.);
  check_float "empty median" 0. (Stats.Series.median empty);
  check_float "empty jitter" 0. (Stats.Series.jitter empty);
  let one = series_of [ 42. ] in
  check_float "single p0" 42. (Stats.Series.percentile one 0.);
  check_float "single p100" 42. (Stats.Series.percentile one 100.);
  check_float "single median" 42. (Stats.Series.median one);
  check_float "single jitter" 0. (Stats.Series.jitter one)

let qcheck_percentile_bounds =
  QCheck.Test.make ~name:"percentile within min..max" ~count:300
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.)) (float_bound_inclusive 100.))
    (fun (xs, p) ->
      let s = Stats.Series.create () in
      List.iter (Stats.Series.add s) xs;
      let v = Stats.Series.percentile s p in
      v >= Stats.Series.min s && v <= Stats.Series.max s)

(* ------------------------------- Loss ------------------------------- *)

let loss_perfect_always () =
  check_bool "perfect" false (Loss.drops Loss.perfect ~now:0);
  check_bool "always" true (Loss.drops Loss.always ~now:0);
  check_float "perfect rate" 0. (Loss.mean_loss_rate Loss.perfect);
  check_float "always rate" 1. (Loss.mean_loss_rate Loss.always)

let loss_bernoulli_rate () =
  let l = Loss.bernoulli (Rng.create 7L) ~p:0.25 in
  let n = 20_000 in
  let drops = ref 0 in
  for i = 1 to n do
    if Loss.drops l ~now:i then incr drops
  done;
  let f = float_of_int !drops /. float_of_int n in
  check_bool "~0.25" true (Float.abs (f -. 0.25) < 0.02);
  check_float "analytic" 0.25 (Loss.mean_loss_rate l)

let loss_gilbert_rate () =
  let l =
    Loss.gilbert_elliott (Rng.create 11L) ~p_good_loss:0. ~p_bad_loss:1.
      ~mean_good:(Time.ms 90) ~mean_bad:(Time.ms 10)
  in
  check_float "analytic 10%" 0.1 (Loss.mean_loss_rate l);
  (* Empirical: sample a packet every 100us over 200 simulated seconds. *)
  let drops = ref 0 and n = ref 0 in
  let t = ref 0 in
  while !t < Time.sec 200 do
    incr n;
    if Loss.drops l ~now:!t then incr drops;
    t := !t + 100
  done;
  let f = float_of_int !drops /. float_of_int !n in
  check_bool "empirical ~10%" true (Float.abs (f -. 0.1) < 0.02)

let loss_gilbert_bursty () =
  (* Consecutive losses should be far more frequent than under Bernoulli at
     the same rate: P(loss | previous lost) >> p. *)
  let l =
    Loss.gilbert_elliott (Rng.create 13L) ~p_good_loss:0. ~p_bad_loss:1.
      ~mean_good:(Time.ms 95) ~mean_bad:(Time.ms 5)
  in
  let prev = ref false in
  let pairs = ref 0 and both = ref 0 in
  let t = ref 0 in
  while !t < Time.sec 100 do
    let d = Loss.drops l ~now:!t in
    if !prev then begin
      incr pairs;
      if d then incr both
    end;
    prev := d;
    t := !t + 100
  done;
  let cond = float_of_int !both /. float_of_int (max 1 !pairs) in
  check_bool "correlated (P(loss|loss) > 0.5)" true (cond > 0.5)

let loss_outage_window () =
  let l = Loss.periodic_outage ~period:(Time.ms 100) ~outage:(Time.ms 10) ~offset:(Time.ms 50) in
  check_bool "before offset" false (Loss.drops l ~now:0);
  check_bool "inside outage" true (Loss.drops l ~now:(Time.ms 55));
  check_bool "after outage" false (Loss.drops l ~now:(Time.ms 65));
  check_bool "next period" true (Loss.drops l ~now:(Time.ms 152));
  check_bool "in_burst" true (Loss.in_burst l ~now:(Time.ms 55));
  check_float "rate" 0.1 (Loss.mean_loss_rate l)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "strovl_sim"
    [
      ( "time",
        [
          Alcotest.test_case "units" `Quick time_units;
          Alcotest.test_case "arith" `Quick time_arith;
          Alcotest.test_case "pp" `Quick time_pp;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick rng_deterministic;
          Alcotest.test_case "split_named stable" `Quick rng_split_named_stable;
          Alcotest.test_case "bernoulli freq" `Quick rng_bernoulli_freq;
          Alcotest.test_case "exponential mean" `Quick rng_exponential_mean;
          Alcotest.test_case "shuffle permutes" `Quick rng_shuffle_permutes;
          q qcheck_rng_bounds;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorted order" `Quick heap_sorted_order;
          Alcotest.test_case "fifo ties" `Quick heap_fifo_ties;
          Alcotest.test_case "peek/size/clear" `Quick heap_peek_size;
          q qcheck_heap_sorted;
          q qcheck_heap_model;
        ] );
      ( "engine",
        [
          Alcotest.test_case "order and clock" `Quick engine_order_and_clock;
          Alcotest.test_case "cancel" `Quick engine_cancel;
          Alcotest.test_case "run until" `Quick engine_run_until;
          Alcotest.test_case "nested" `Quick engine_nested_scheduling;
          Alcotest.test_case "same-time fifo" `Quick engine_same_time_fifo;
          Alcotest.test_case "errors" `Quick engine_errors;
          Alcotest.test_case "step/pending" `Quick engine_step_and_pending;
          Alcotest.test_case "reachable words" `Quick engine_words;
          q qcheck_engine_model;
        ] );
      ( "stats",
        [
          Alcotest.test_case "series basics" `Quick stats_series_basics;
          Alcotest.test_case "percentile" `Quick stats_percentile_nearest_rank;
          Alcotest.test_case "jitter" `Quick stats_jitter;
          Alcotest.test_case "clear/counter" `Quick stats_clear_and_counter;
          Alcotest.test_case "oracle edges" `Quick stats_oracle_edges;
          q qcheck_percentile_bounds;
          q qcheck_percentile_oracle;
          q qcheck_median_oracle;
          q qcheck_jitter_oracle;
        ] );
      ( "loss",
        [
          Alcotest.test_case "perfect/always" `Quick loss_perfect_always;
          Alcotest.test_case "bernoulli rate" `Quick loss_bernoulli_rate;
          Alcotest.test_case "gilbert rate" `Quick loss_gilbert_rate;
          Alcotest.test_case "gilbert bursty" `Quick loss_gilbert_bursty;
          Alcotest.test_case "outage window" `Quick loss_outage_window;
        ] );
    ]
