let bound = 1 lsl 16
let absent = '\000'

type t = {
  (* slot l land (length - 1) covers lseq l in (floor, floor + length] *)
  mutable ring : Bytes.t;
  mutable floor : int;
  mutable high : int;
  drops : Strovl_obs.Metrics.Counter.t;
}

let create ~proto =
  {
    ring = Bytes.make 16 absent;
    floor = 0;
    high = 0;
    drops =
      Strovl_obs.Metrics.counter
        ~labels:[ ("proto", proto) ]
        "strovl_link_window_drops_total";
  }

let floor t = t.floor
let high t = t.high
let[@inline] slot t l = l land (Bytes.length t.ring - 1)

let beyond t l =
  let far = l - t.floor > bound in
  if far then Strovl_obs.Metrics.Counter.incr t.drops;
  far

let seen t l =
  l <= t.floor
  || (l - t.floor <= Bytes.length t.ring && Bytes.get t.ring (slot t l) <> absent)

let set t l =
  if l > t.floor then begin
    if l - t.floor > bound then invalid_arg "Rx_window.set: beyond the window";
    let len = Bytes.length t.ring in
    if l - t.floor > len then begin
      let nlen = ref (2 * len) in
      while l - t.floor > !nlen do
        nlen := 2 * !nlen
      done;
      let ring = Bytes.make !nlen absent in
      for x = t.floor + 1 to t.floor + len do
        Bytes.set ring (x land (!nlen - 1)) (Bytes.get t.ring (slot t x))
      done;
      t.ring <- ring
    end;
    Bytes.set t.ring (slot t l) '\001';
    if l > t.high then t.high <- l
  end

let take_next t =
  let i = slot t (t.floor + 1) in
  let next = Bytes.get t.ring i <> absent in
  if next then begin
    Bytes.set t.ring i absent;
    t.floor <- t.floor + 1
  end;
  next

let slide t n =
  if n > t.floor then begin
    if n - t.floor >= Bytes.length t.ring then Bytes.fill t.ring 0 (Bytes.length t.ring) absent
    else
      for l = t.floor + 1 to n do
        Bytes.set t.ring (slot t l) absent
      done;
    t.floor <- n
  end
