type t = int

let zero = 0
let us n = n
let ms n = n * 1_000
let sec n = n * 1_000_000
let of_ms_float x = int_of_float (Float.round (x *. 1_000.))
let of_sec_float x = int_of_float (Float.round (x *. 1_000_000.))
let to_ms_float t = float_of_int t /. 1_000.
let to_sec_float t = float_of_int t /. 1_000_000.
let add = ( + )
let sub = ( - )
let min = Int.min
let max = Int.max
let compare = Int.compare
let infinity = Stdlib.max_int

let pp ppf t =
  if t = infinity then Format.pp_print_string ppf "inf"
  else if t < 0 then Format.fprintf ppf "-%a" (fun ppf t -> Format.pp_print_string ppf t) (string_of_int (-t) ^ "us")
  else if t < 1_000 then Format.fprintf ppf "%dus" t
  else if t < 1_000_000 then Format.fprintf ppf "%.3gms" (to_ms_float t)
  else Format.fprintf ppf "%.4gs" (to_sec_float t)

let to_string t = Format.asprintf "%a" pp t
