(* The @smoke timing gate on the forward-path fixture (Fwd_path).

   Absolute ns/op is useless as a gate on a shared host whose speed drifts
   by 2x between phases. So blocks of forward-path packets alternate with
   blocks of a calibration loop that does the same kind of work (64-bit
   hashing, heap-ordered event scheduling and table reads, allocating as it
   goes). Both halves of a pair see the same machine phase, so their ratio
   cancels it; the gate fails when the median per-pair ratio passes
   [bound].

   The calibration code is a frozen copy kept here, not a call into lib/:
   no library change can move the denominator. *)

(* SipHash-2-4, as lib/crypto had it when the bound was set. *)
module Sip = struct
  type state = {
    mutable v0 : int64;
    mutable v1 : int64;
    mutable v2 : int64;
    mutable v3 : int64;
  }

  let rotl x b =
    Int64.logor (Int64.shift_left x b) (Int64.shift_right_logical x (64 - b))

  let le64 s off len =
    let v = ref 0L in
    for i = len - 1 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[off + i]))
    done;
    !v

  let round s =
    s.v0 <- Int64.add s.v0 s.v1;
    s.v1 <- rotl s.v1 13;
    s.v1 <- Int64.logxor s.v1 s.v0;
    s.v0 <- rotl s.v0 32;
    s.v2 <- Int64.add s.v2 s.v3;
    s.v3 <- rotl s.v3 16;
    s.v3 <- Int64.logxor s.v3 s.v2;
    s.v0 <- Int64.add s.v0 s.v3;
    s.v3 <- rotl s.v3 21;
    s.v3 <- Int64.logxor s.v3 s.v0;
    s.v2 <- Int64.add s.v2 s.v1;
    s.v1 <- rotl s.v1 17;
    s.v1 <- Int64.logxor s.v1 s.v2;
    s.v2 <- rotl s.v2 32

  let compress s m =
    s.v3 <- Int64.logxor s.v3 m;
    round s;
    round s;
    s.v0 <- Int64.logxor s.v0 m

  let hash k0 k1 msg =
    let s =
      {
        v0 = Int64.logxor k0 0x736f6d6570736575L;
        v1 = Int64.logxor k1 0x646f72616e646f6dL;
        v2 = Int64.logxor k0 0x6c7967656e657261L;
        v3 = Int64.logxor k1 0x7465646279746573L;
      }
    in
    let len = String.length msg in
    let nblocks = len / 8 in
    for i = 0 to nblocks - 1 do
      compress s (le64 msg (i * 8) 8)
    done;
    compress s
      (Int64.logor
         (le64 msg (nblocks * 8) (len - (nblocks * 8)))
         (Int64.shift_left (Int64.of_int (len land 0xff)) 56));
    s.v2 <- Int64.logxor s.v2 0xffL;
    round s;
    round s;
    round s;
    round s;
    Int64.logxor (Int64.logxor s.v0 s.v1) (Int64.logxor s.v2 s.v3)
end

(* A binary min-heap on (time, seq) keys in parallel int arrays, the shape
   of the engine's event queue, held at [depth] pending entries. *)
module Heap = struct
  let depth = 16
  let times = Array.make (depth + 1) 0
  let seqs = Array.make (depth + 1) 0
  let len = ref 0

  let less a b = times.(a) < times.(b) || (times.(a) = times.(b) && seqs.(a) < seqs.(b))

  let swap a b =
    let t = times.(a) and s = seqs.(a) in
    times.(a) <- times.(b);
    seqs.(a) <- seqs.(b);
    times.(b) <- t;
    seqs.(b) <- s

  let push time seq =
    let i = ref !len in
    times.(!i) <- time;
    seqs.(!i) <- seq;
    incr len;
    while !i > 0 && less !i ((!i - 1) / 2) do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop () =
    let top = times.(0) in
    decr len;
    times.(0) <- times.(!len);
    seqs.(0) <- seqs.(!len);
    let rec down i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let m = if l < !len && less l i then l else i in
      let m = if r < !len && less r m then r else m in
      if m <> i then begin
        swap i m;
        down m
      end
    in
    down 0;
    top
end

let msg = String.init 256 (fun i -> Char.chr (i land 0xff))
let clock = ref 0

(* 32 KB of ints, read in order: the wide, independent loads of table
   lookups and record copies. Without them the hash and the heap gain less
   than the forward path from the host's fast phase, and the ratio follows
   the phase. *)
let table = Array.init 4096 (fun i -> i * 7)

let calibrate iters =
  let acc = ref 0L and sum = ref 0 in
  for i = 1 to iters do
    acc := Int64.logxor !acc (Sip.hash (Int64.of_int i) 0x0f0e0d0c0b0a0908L msg);
    for j = 1 to 4 do
      Heap.push (!clock + ((i * 7919) + (j * 104729)) land 1023) i;
      clock := Heap.pop ()
    done;
    for k = 0 to 2047 do
      sum := !sum + Array.unsafe_get table ((k + i) land 4095)
    done
  done;
  ignore (Sys.opaque_identity (!acc, !sum))

let () =
  for i = 1 to Heap.depth do
    Heap.push (i * 64) i
  done

let pairs = 40
let fwd_iters = 1000
let calib_iters = 400

(* On a 2-vCPU VM at the commit that set it, the median ratio read
   0.51-0.68 over 178 runs spread across the host's speed phases, and
   0.72-0.93 with the forward path slowed 21-51%. *)
let bound = 0.70

let time f n =
  let t0 = Strovl_rt.Clock.now_ns () in
  f n;
  Int64.to_float (Int64.sub (Strovl_rt.Clock.now_ns ()) t0)

let measure () =
  let fwd = Fwd_path.create () in
  let run n =
    for _ = 1 to n do
      Fwd_path.packet fwd
    done
  in
  calibrate calib_iters;
  List.init pairs (fun _ ->
      let f = time run fwd_iters in
      let c = time calibrate calib_iters in
      (f /. float_of_int fwd_iters, f /. c))

let () =
  let samples = Domain.join (Domain.spawn measure) in
  let ratios = List.sort compare (List.map snd samples) in
  let median = List.nth ratios (pairs / 2) in
  let min_ns = List.fold_left (fun m (ns, _) -> Float.min m ns) infinity samples in
  Printf.printf
    "fwd-ratio: median forward/calibration %.3f (bound %.2f, %d pairs, \
     ratios %.3f..%.3f, forward path min %.0f ns/op)\n"
    median bound pairs (List.hd ratios) (List.nth ratios (pairs - 1)) min_ns;
  if median > bound then begin
    print_endline "FAIL: forward path slower than its bound relative to calibration";
    exit 1
  end
