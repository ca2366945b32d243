type t = { nlinks : int; w : int64 array }

let nwords nlinks = (nlinks + 63) / 64

let create ~nlinks =
  if nlinks < 0 then invalid_arg "Bitmask.create";
  { nlinks; w = Array.make (max 1 (nwords nlinks)) 0L }

let nlinks t = t.nlinks

let check t l =
  if l < 0 || l >= t.nlinks then invalid_arg "Bitmask: link out of range"

let set t l =
  check t l;
  t.w.(l / 64) <- Int64.logor t.w.(l / 64) (Int64.shift_left 1L (l mod 64))

let clear t l =
  check t l;
  t.w.(l / 64) <-
    Int64.logand t.w.(l / 64) (Int64.lognot (Int64.shift_left 1L (l mod 64)))

let mem t l =
  check t l;
  Int64.logand t.w.(l / 64) (Int64.shift_left 1L (l mod 64)) <> 0L

let of_links ~nlinks links =
  let t = create ~nlinks in
  List.iter (set t) links;
  t

let full ~nlinks =
  let t = create ~nlinks in
  for l = 0 to nlinks - 1 do
    set t l
  done;
  t

let popcount64 x =
  let rec go acc x = if x = 0L then acc else go (acc + 1) (Int64.logand x (Int64.sub x 1L)) in
  go 0 x

let count t = Array.fold_left (fun acc w -> acc + popcount64 w) 0 t.w

let binop f a b =
  if a.nlinks <> b.nlinks then invalid_arg "Bitmask: size mismatch";
  { nlinks = a.nlinks; w = Array.init (Array.length a.w) (fun i -> f a.w.(i) b.w.(i)) }

let union = binop Int64.logor
let inter = binop Int64.logand
let copy t = { t with w = Array.copy t.w }
let equal a b = a.nlinks = b.nlinks && a.w = b.w
let is_empty t = Array.for_all (fun w -> w = 0L) t.w

let iter t f =
  for l = 0 to t.nlinks - 1 do
    if mem t l then f l
  done

let to_links t =
  let acc = ref [] in
  iter t (fun l -> acc := l :: !acc);
  List.rev !acc

(* Valid-bit mask for word [wi]: bits for links >= nlinks are not
   representable and get silently dropped, matching what a bit-by-bit
   decode through [set] (which range-checks) would keep. *)
let word_mask t wi =
  let valid = t.nlinks - (wi * 64) in
  if valid >= 64 then -1L
  else if valid <= 0 then 0L
  else Int64.sub (Int64.shift_left 1L valid) 1L

let set_word t wi word =
  if wi < 0 || wi >= Array.length t.w then invalid_arg "Bitmask.set_word";
  t.w.(wi) <- Int64.logand word (word_mask t wi)

let of_words ~nlinks words =
  let t = create ~nlinks in
  if Array.length words <> Array.length t.w then
    invalid_arg "Bitmask.of_words: word count mismatch";
  Array.iteri (set_word t) words;
  t

let words t = Array.copy t.w
let byte_size t = 8 * Array.length t.w
