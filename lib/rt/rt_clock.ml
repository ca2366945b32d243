external now_ns : unit -> (int64[@unboxed])
  = "strovl_clock_now_ns" "strovl_clock_now_ns_unboxed"
[@@noalloc]

let now_us () = Int64.to_int (Int64.div (now_ns ()) 1000L)
