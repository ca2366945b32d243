(* Binary min-heap on unboxed parallel int arrays: the (time, seq) keys and
   the int payloads each live in their own array, so there is no per-entry
   box and no write barrier, and pushing and popping allocate nothing once
   the arrays have grown to the high-water mark. *)

type t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable vals : int array;
  mutable len : int;
}

let create () = { times = [||]; seqs = [||]; vals = [||]; len = 0 }

let is_empty h = h.len = 0
let size h = h.len

let grow a ~len ~cap =
  let n = Array.make cap 0 in
  Array.blit a 0 n 0 len;
  n

let ensure_room h =
  let cap = Array.length h.times in
  if h.len = cap then begin
    let cap = if cap = 0 then 16 else cap * 2 in
    h.times <- grow h.times ~len:h.len ~cap;
    h.seqs <- grow h.seqs ~len:h.len ~cap;
    h.vals <- grow h.vals ~len:h.len ~cap
  end

(* Indices below [len] are within every array (they hold [len] or more
   entries), so the sift loops read and write them unchecked. *)
let push h ~time ~seq value =
  ensure_room h;
  let times = h.times and seqs = h.seqs and vals = h.vals in
  (* Hole insertion: bubble the hole up, write the new entry once. *)
  let i = ref h.len in
  h.len <- h.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = Array.unsafe_get times parent in
    if time < pt || (time = pt && seq < Array.unsafe_get seqs parent) then begin
      Array.unsafe_set times !i pt;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set vals !i (Array.unsafe_get vals parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set vals !i value

let min_time h =
  if h.len = 0 then invalid_arg "Heap.min_time: empty";
  h.times.(0)

let min_seq h =
  if h.len = 0 then invalid_arg "Heap.min_seq: empty";
  h.seqs.(0)

(* Hole sift-down of the entry (time, seq, value) from the root: the
   smaller child moves up until the entry fits. The right child is taken
   only when strictly smaller than the left one, which is the order a
   swap-based sift (smallest of parent, left, right, in that order)
   produces, equal keys included. *)
let sift_down h time seq value =
  let times = h.times and seqs = h.seqs and vals = h.vals and len = h.len in
  let i = ref 0 and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= len then continue := false
    else begin
      let r = l + 1 and lt = Array.unsafe_get times l in
      let c =
        if r < len then begin
          let rt = Array.unsafe_get times r in
          if
            rt < lt
            || (rt = lt && Array.unsafe_get seqs r < Array.unsafe_get seqs l)
          then r
          else l
        end
        else l
      in
      let ct = Array.unsafe_get times c in
      if ct < time || (ct = time && Array.unsafe_get seqs c < seq) then begin
        Array.unsafe_set times !i ct;
        Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
        Array.unsafe_set vals !i (Array.unsafe_get vals c);
        i := c
      end
      else continue := false
    end
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set vals !i value

let pop_min h =
  if h.len = 0 then invalid_arg "Heap.pop_min: empty";
  let v = h.vals.(0) in
  let last = h.len - 1 in
  h.len <- last;
  if last > 0 then sift_down h h.times.(last) h.seqs.(last) h.vals.(last);
  v

let clear h = h.len <- 0
