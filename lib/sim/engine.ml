(* Allocation-free event engine.

   Events live in a pooled slot store: parallel int arrays for the
   (time, seq) key, a closure array, a state byte per slot, and an
   intrusive free list threaded through [p_next]. A generation counter per
   slot makes handles ABA-safe ints — [(gen lsl slot_bits) lor slot] — so
   [schedule]/[cancel] allocate nothing once the pool has reached its
   high-water mark.

   Pending events are keyed by (time, seq), lexicographic, across two
   lanes:

   - a timer wheel of one-microsecond buckets for the dominant
     short-delay class (link transmissions, CPU charges, most
     retransmission timers). Because the engine always pops the global
     minimum, every queued time lies in [clock, clock + size) when it
     sits in a wheel of [size] buckets, so a bucket never mixes two
     distinct times and its FIFO chain is automatically in seq order.
     Occupancy is kept at two levels: a bitmap with one bit per bucket,
     and a summary with one bit per non-empty bitmap word. The next
     occupied bucket is found from the summary in a handful of word reads
     and a constant-time lowest-bit lookup, however far ahead it lies;
   - a binary heap of slot indices (unboxed parallel int arrays, see
     {!Heap}) for everything scheduled further out.

   The two lanes are merged by comparing (time, seq) at pop time, so
   execution order is bit-identical to a single global heap whichever
   lane an event sits in.

   A fresh wheel has [small_size] buckets (about 2k words), so an engine
   that never carries traffic costs little. Schedules that miss it but
   fall within [wheel_size] count as near misses; the [grow_after]th one
   rebuckets the wheel once into [wheel_size] buckets. Each occupied
   bucket holds a single time, so its chain moves whole to
   [time land wheel_mask]; events already in the heap stay there. It
   grows straight to full size rather than by doubling: a run's slow
   stretch before full reach is paid once.

   [reset] starts a new run on the same engine: it drops what is queued
   but keeps the pool and a grown wheel, so a sequence of runs (an
   experiment's rows) allocates and grows them once. *)

let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1
let wheel_size = 1 lsl 15 (* full reach: 32.768 ms of 1 us buckets *)
let wheel_mask = wheel_size - 1
let small_size = 1 lsl 10 (* a fresh engine's wheel: 1.024 ms *)
let grow_after = 2048 (* near misses before the wheel grows to full reach *)

let nop () = ()

(* Slot states. *)
let st_free = '\000'
let st_pending = '\001'
let st_cancelled = '\002'

type handle = int

type t = {
  mutable clock : Time.t;
  mutable seq : int;
  mutable root_rng : Rng.t;
  (* Event pool. *)
  mutable p_fn : (unit -> unit) array;
  mutable p_time : int array;
  mutable p_seq : int array;
  mutable p_gen : int array;
  mutable p_state : Bytes.t;
  mutable p_next : int array; (* free list / wheel bucket chaining *)
  mutable free_head : int;
  (* Far lane: heap of slot indices keyed by (time, seq). *)
  heap : Heap.t;
  (* Near lane: timer wheel of [w_mask + 1] buckets. *)
  mutable w_head : int array;
  mutable w_tail : int array;
  mutable w_bitmap : int array; (* occupancy, 32 buckets per word *)
  mutable w_summary : int array; (* non-empty bitmap words, 32 per word *)
  mutable w_mask : int;
  mutable w_misses : int; (* heap-lane schedules within [wheel_size] *)
  mutable w_count : int;
  mutable w_next_time : int; (* earliest queued wheel time; -1 when empty *)
}

(* The one place a run begins: the flight recorder (and through it the
   metrics time axis and the auditor) reads this engine's clock and
   numbers the run. *)
let start_run t = Strovl_obs.Trace.start_run (fun () -> t.clock)

let create ?(seed = 1L) () =
  let t =
    {
      clock = Time.zero;
      seq = 0;
      root_rng = Rng.create seed;
      p_fn = [||];
      p_time = [||];
      p_seq = [||];
      p_gen = [||];
      p_state = Bytes.empty;
      p_next = [||];
      free_head = -1;
      heap = Heap.create ();
      w_head = Array.make small_size (-1);
      w_tail = Array.make small_size (-1);
      w_bitmap = Array.make (small_size lsr 5) 0;
      w_summary = Array.make (small_size lsr 10) 0;
      w_mask = small_size - 1;
      w_misses = 0;
      w_count = 0;
      w_next_time = -1;
    }
  in
  start_run t;
  t

let now t = t.clock
let rng t = t.root_rng

(* ------------------------------ pool ---------------------------------- *)

let grow_pool t =
  let cap = Array.length t.p_time in
  let ncap = if cap = 0 then 256 else cap * 2 in
  if ncap > 1 lsl slot_bits then failwith "Engine: event pool exhausted";
  let nfn = Array.make ncap nop in
  Array.blit t.p_fn 0 nfn 0 cap;
  t.p_fn <- nfn;
  let ntime = Array.make ncap 0 in
  Array.blit t.p_time 0 ntime 0 cap;
  t.p_time <- ntime;
  let nseq = Array.make ncap 0 in
  Array.blit t.p_seq 0 nseq 0 cap;
  t.p_seq <- nseq;
  let ngen = Array.make ncap 0 in
  Array.blit t.p_gen 0 ngen 0 cap;
  t.p_gen <- ngen;
  let nnext = Array.make ncap (-1) in
  Array.blit t.p_next 0 nnext 0 cap;
  t.p_next <- nnext;
  let nstate = Bytes.make ncap st_free in
  Bytes.blit t.p_state 0 nstate 0 cap;
  t.p_state <- nstate;
  for i = ncap - 1 downto cap do
    t.p_next.(i) <- t.free_head;
    t.free_head <- i
  done

let alloc_slot t =
  if t.free_head < 0 then grow_pool t;
  let s = t.free_head in
  t.free_head <- t.p_next.(s);
  s

let free_slot t s =
  t.p_gen.(s) <- t.p_gen.(s) + 1;
  Bytes.unsafe_set t.p_state s st_free;
  t.p_fn.(s) <- nop;
  t.p_next.(s) <- t.free_head;
  t.free_head <- s

(* ------------------------------ wheel --------------------------------- *)

let bm_set t idx =
  let w = idx lsr 5 in
  let b = t.w_bitmap.(w) in
  if b = 0 then begin
    let sw = w lsr 5 in
    t.w_summary.(sw) <- t.w_summary.(sw) lor (1 lsl (w land 31))
  end;
  t.w_bitmap.(w) <- b lor (1 lsl (idx land 31))

let bm_clear t idx =
  let w = idx lsr 5 in
  let b = t.w_bitmap.(w) land lnot (1 lsl (idx land 31)) in
  t.w_bitmap.(w) <- b;
  if b = 0 then begin
    let sw = w lsr 5 in
    t.w_summary.(sw) <- t.w_summary.(sw) land lnot (1 lsl (w land 31))
  end

(* Index of the lowest set bit of a non-zero word of 32 bits: the bit on
   its own, times a de Bruijn constant, puts a distinct 5-bit pattern in
   the top bits of the 32-bit product. *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let ctz w =
  Array.unsafe_get debruijn
    ((((w land -w) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

(* Lowest occupied bucket of a non-empty bitmap word. *)
let first_in_word t wi = (wi lsl 5) lor ctz t.w_bitmap.(wi)

(* First non-empty bitmap word at or after summary word [si], wrapping. *)
let rec first_from_summary t si =
  let s = t.w_summary.(si) in
  if s <> 0 then first_in_word t ((si lsl 5) lor ctz s)
  else first_from_summary t ((si + 1) land (t.w_mask lsr 10))

(* First non-empty bucket at or after [start], wrapping. Requires at least
   one occupied bucket. The rest of [start]'s word, then the rest of its
   summary word, then whole summary words: at most [w_mask / 1024 + 3]
   word reads however far ahead the bucket lies. *)
let bitmap_next t start =
  let wi = start lsr 5 in
  let w = t.w_bitmap.(wi) land (-1 lsl (start land 31)) in
  if w <> 0 then (wi lsl 5) lor ctz w
  else begin
    let si = wi lsr 5 in
    let s = t.w_summary.(si) land (-2 lsl (wi land 31)) in
    if s <> 0 then first_in_word t ((si lsl 5) lor ctz s)
    else first_from_summary t ((si + 1) land (t.w_mask lsr 10))
  end

let wheel_add t s ~at =
  let idx = at land t.w_mask in
  t.p_next.(s) <- -1;
  if t.w_head.(idx) < 0 then begin
    t.w_head.(idx) <- s;
    bm_set t idx
  end
  else t.p_next.(t.w_tail.(idx)) <- s;
  t.w_tail.(idx) <- s;
  t.w_count <- t.w_count + 1;
  if t.w_count = 1 || at < t.w_next_time then t.w_next_time <- at

let pop_wheel t =
  let idx = t.w_next_time land t.w_mask in
  let s = t.w_head.(idx) in
  let nxt = t.p_next.(s) in
  t.w_head.(idx) <- nxt;
  t.w_count <- t.w_count - 1;
  if nxt < 0 then begin
    t.w_tail.(idx) <- -1;
    bm_clear t idx;
    if t.w_count = 0 then t.w_next_time <- -1
    else begin
      let j = bitmap_next t ((idx + 1) land t.w_mask) in
      t.w_next_time <- t.p_time.(t.w_head.(j))
    end
  end;
  s

(* The one growth step: every queued wheel time is within [small_size] of
   the clock, so distinct buckets keep distinct times at full size and
   each chain (and [w_next_time]) carries over unchanged. *)
let grow_wheel t =
  let old_head = t.w_head and old_tail = t.w_tail in
  t.w_head <- Array.make wheel_size (-1);
  t.w_tail <- Array.make wheel_size (-1);
  t.w_bitmap <- Array.make (wheel_size lsr 5) 0;
  t.w_summary <- Array.make (wheel_size lsr 10) 0;
  t.w_mask <- wheel_mask;
  Array.iteri
    (fun idx h ->
      if h >= 0 then begin
        let j = t.p_time.(h) land wheel_mask in
        t.w_head.(j) <- h;
        t.w_tail.(j) <- old_tail.(idx);
        bm_set t j
      end)
    old_head

(* --------------------------- scheduling ------------------------------- *)

let schedule_at t ~at fn =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: at=%d < now=%d" at t.clock);
  let s = alloc_slot t in
  t.p_fn.(s) <- fn;
  t.p_time.(s) <- at;
  t.p_seq.(s) <- t.seq;
  t.seq <- t.seq + 1;
  Bytes.unsafe_set t.p_state s st_pending;
  let d = at - t.clock in
  if d <= t.w_mask then wheel_add t s ~at
  else begin
    Heap.push t.heap ~time:at ~seq:t.p_seq.(s) s;
    if d < wheel_size then begin
      t.w_misses <- t.w_misses + 1;
      if t.w_misses = grow_after then grow_wheel t
    end
  end;
  (t.p_gen.(s) lsl slot_bits) lor s

let schedule t ~delay fn =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~at:(Time.add t.clock delay) fn

let cancel t h =
  let s = h land slot_mask in
  if
    s < Array.length t.p_gen
    && t.p_gen.(s) = h lsr slot_bits
    && Bytes.unsafe_get t.p_state s = st_pending
  then Bytes.unsafe_set t.p_state s st_cancelled

let is_pending t h =
  let s = h land slot_mask in
  s < Array.length t.p_gen
  && t.p_gen.(s) = h lsr slot_bits
  && Bytes.unsafe_get t.p_state s = st_pending

(* ---------------------------- execution ------------------------------- *)

(* Pop the globally minimal (time, seq) event across both lanes if its time
   is at most [until]; -1 when there is none. Cancelled events are popped
   like live ones (they still advance the clock when run, exactly as
   before the pool). *)
let pop_until t until =
  if t.w_count = 0 then
    if Heap.is_empty t.heap || Heap.min_time t.heap > until then -1
    else Heap.pop_min t.heap
  else begin
    let wt = t.w_next_time in
    if Heap.is_empty t.heap then if wt > until then -1 else pop_wheel t
    else begin
      let ht = Heap.min_time t.heap in
      if wt < ht then if wt > until then -1 else pop_wheel t
      else if ht < wt then if ht > until then -1 else Heap.pop_min t.heap
      else if wt > until then -1
      else if t.p_seq.(t.w_head.(wt land t.w_mask)) < Heap.min_seq t.heap
      then pop_wheel t
      else Heap.pop_min t.heap
    end
  end

let next_time t =
  if t.w_count = 0 then
    if Heap.is_empty t.heap then -1 else Heap.min_time t.heap
  else if Heap.is_empty t.heap then t.w_next_time
  else if t.w_next_time <= Heap.min_time t.heap then t.w_next_time
  else Heap.min_time t.heap

let exec t s =
  t.clock <- t.p_time.(s);
  let live = Bytes.unsafe_get t.p_state s = st_pending in
  let fn = t.p_fn.(s) in
  free_slot t s;
  if live then fn ()

let step t =
  let s = pop_until t Time.infinity in
  if s < 0 then false
  else begin
    exec t s;
    true
  end

let run ?(until = Time.infinity) t =
  let rec loop () =
    let s = pop_until t until in
    if s >= 0 then begin
      exec t s;
      loop ()
    end
  in
  loop ();
  (* Virtual time passes even when nothing is scheduled inside the window:
     otherwise repeated short runs can freeze the clock short of the next
     periodic event and never reach it. *)
  if until <> Time.infinity && until > t.clock then t.clock <- until

let pending_events t = t.w_count + Heap.size t.heap

let next_event_time t =
  let nt = next_time t in
  if nt < 0 then None else Some nt

(* Every queued event, cancelled ones included, is popped once and its
   slot freed (dropping its closure), which leaves both lanes empty. *)
let reset t ~seed =
  let rec drain () =
    let s = pop_until t Time.infinity in
    if s >= 0 then begin
      free_slot t s;
      drain ()
    end
  in
  drain ();
  t.clock <- Time.zero;
  t.seq <- 0;
  t.root_rng <- Rng.create seed;
  start_run t
