module Series = struct
  type t = {
    mutable data : float array;
    mutable len : int;
    mutable sorted : float array option; (* cache, invalidated on add *)
  }

  let create () = { data = [||]; len = 0; sorted = None }

  let add s x =
    let cap = Array.length s.data in
    if s.len = cap then begin
      let ncap = if cap = 0 then 64 else cap * 2 in
      let narr = Array.make ncap 0. in
      Array.blit s.data 0 narr 0 s.len;
      s.data <- narr
    end;
    s.data.(s.len) <- x;
    s.len <- s.len + 1;
    s.sorted <- None

  let count s = s.len
  let is_empty s = s.len = 0

  let fold f init s =
    let acc = ref init in
    for i = 0 to s.len - 1 do
      acc := f !acc s.data.(i)
    done;
    !acc

  let sum s = fold ( +. ) 0. s
  let mean s = if s.len = 0 then 0. else sum s /. float_of_int s.len

  let stddev s =
    if s.len < 2 then 0.
    else begin
      let m = mean s in
      let ss = fold (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. s in
      sqrt (ss /. float_of_int (s.len - 1))
    end

  let min s = if s.len = 0 then 0. else fold Float.min Float.infinity s
  let max s = if s.len = 0 then 0. else fold Float.max Float.neg_infinity s

  let sorted s =
    match s.sorted with
    | Some a -> a
    | None ->
      let a = Array.sub s.data 0 s.len in
      Array.sort Float.compare a;
      s.sorted <- Some a;
      a

  let percentile s p =
    if s.len = 0 then 0.
    else begin
      let a = sorted s in
      let rank = int_of_float (ceil (p /. 100. *. float_of_int s.len)) in
      let idx = Stdlib.max 0 (Stdlib.min (s.len - 1) (rank - 1)) in
      a.(idx)
    end

  let median s = percentile s 50.

  let samples s = Array.sub s.data 0 s.len

  let jitter s =
    if s.len < 2 then 0.
    else begin
      let acc = ref 0. in
      for i = 1 to s.len - 1 do
        acc := !acc +. Float.abs (s.data.(i) -. s.data.(i - 1))
      done;
      !acc /. float_of_int (s.len - 1)
    end

  let clear s =
    s.len <- 0;
    s.sorted <- None
end

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den
