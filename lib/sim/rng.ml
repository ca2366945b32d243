type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* SplitMix64 finalizer: two xor-shift-multiply rounds. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = seed }

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split_named t name =
  let h = ref (int64 t) in
  String.iter (fun c -> h := mix (Int64.add !h (Int64.of_int (Char.code c)))) name;
  { state = !h }

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits: OCaml ints are 63-bit, so a 63-bit value could land
     negative after Int64.to_int. *)
  let r = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  r mod bound

let float t bound =
  (* 53 random bits into [0,1). *)
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits /. 9007199254740992. *. bound

let bernoulli t p = float t 1.0 < p

let exponential t mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0. then 1e-300 else u in
  -.mean *. log u

let uniform_range t lo hi = lo +. float t (hi -. lo)

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
