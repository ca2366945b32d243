type labels = (string * string) list

(* All registry state is domain-local: each domain (and therefore each
   parallel run executing on it) owns an independent registry, so N
   simulations on N domains never contend on — or leak counts into — each
   other's metrics. Handles embed their owning domain's switches, so the
   hot-path update cost stays one dereference and a branch while disabled,
   and one more branch while enabled with the time axis off. *)

type point = { p_run : int; p_t0 : int; p_n : int; p_sum : int; p_max : int }

(* The switches every handle of one domain shares: [on] gates every update,
   [series] also folds it into the handle's time axis, bucketed by
   [window] sim-µs with [cap] closed buckets kept. *)
type sw = {
  mutable on : bool;
  mutable series : bool;
  mutable window : int;
  mutable cap : int;
}

(* A handle's time axis: a ring of closed buckets, allocated at the first
   flush, and the open bucket of run cur_run (cur_t0 = min_int means
   none). Buckets are aligned to multiples of the window, so every handle
   shares bucket edges. *)
type axis = {
  mutable buf : point array;
  mutable head : int; (* next write slot *)
  mutable filled : int;
  mutable cur_run : int;
  mutable cur_t0 : int;
  mutable cur_n : int;
  mutable cur_sum : int;
  mutable cur_max : int;
}

let new_axis () =
  { buf = [||]; head = 0; filled = 0; cur_run = 0; cur_t0 = min_int;
    cur_n = 0; cur_sum = 0; cur_max = min_int }

let clear_axis ax =
  ax.buf <- [||];
  ax.head <- 0;
  ax.filled <- 0;
  ax.cur_run <- 0;
  ax.cur_t0 <- min_int;
  ax.cur_n <- 0;
  ax.cur_sum <- 0;
  ax.cur_max <- min_int

let open_point ax =
  { p_run = ax.cur_run; p_t0 = ax.cur_t0; p_n = ax.cur_n; p_sum = ax.cur_sum;
    p_max = ax.cur_max }

let flush sw ax =
  if ax.cur_n > 0 then begin
    if Array.length ax.buf = 0 then
      ax.buf <-
        Array.make sw.cap { p_run = 0; p_t0 = 0; p_n = 0; p_sum = 0; p_max = 0 };
    let cap = Array.length ax.buf in
    ax.buf.(ax.head) <- open_point ax;
    ax.head <- (ax.head + 1) mod cap;
    if ax.filled < cap then ax.filled <- ax.filled + 1
  end;
  ax.cur_n <- 0;
  ax.cur_sum <- 0;
  ax.cur_max <- min_int

(* Folds one sample into the open bucket, closing it first when the clock
   has left it or a new run has begun (its clock starts again at 0). No
   allocation unless a bucket boundary was crossed. *)
let fold sw ax v =
  let t = Trace.now () and run = Trace.run () in
  let t0 = t - (t mod sw.window) in
  if ax.cur_t0 <> t0 || ax.cur_run <> run then begin
    flush sw ax;
    ax.cur_run <- run;
    ax.cur_t0 <- t0
  end;
  ax.cur_n <- ax.cur_n + 1;
  ax.cur_sum <- ax.cur_sum + v;
  if v > ax.cur_max then ax.cur_max <- v

let points ax =
  let cap = Array.length ax.buf in
  let closed =
    if cap = 0 then []
    else begin
      let start = (ax.head - ax.filled + cap) mod cap in
      List.init ax.filled (fun i -> ax.buf.((start + i) mod cap))
    end
  in
  if ax.cur_n > 0 then closed @ [ open_point ax ] else closed

module Counter = struct
  type t = { mutable v : int; sw : sw; ax : axis }

  (* Inlined into every caller, as the one-branch updates were before the
     time axis; only [fold] stays out of line. *)
  let[@inline] add c k =
    let sw = c.sw in
    if sw.on then begin
      c.v <- c.v + k;
      if sw.series then fold sw c.ax k
    end

  let[@inline] incr c =
    let sw = c.sw in
    if sw.on then begin
      c.v <- c.v + 1;
      if sw.series then fold sw c.ax 1
    end

  let value c = c.v
end

module Histogram = struct
  (* Log2 buckets: bucket i holds samples in [2^(i-1), 2^i), bucket 0 holds
     {0}. 63 buckets cover the whole non-negative int range in O(1) memory
     per histogram regardless of soak length. *)
  let nbuckets = 63

  type t = {
    counts : int array;
    mutable n : int;
    mutable total : int;
    mutable vmin : int;
    mutable vmax : int;
    sw : sw;
    ax : axis;
  }

  (* The bit length of [v], found by halving the width searched: six
     tests whatever the value. A 63-bit positive int has at most 62 bits,
     which is the last bucket. *)
  let bucket_of v =
    if v <= 0 then 0
    else begin
      let n = ref 1 and v = ref v in
      if !v lsr 32 <> 0 then begin n := !n + 32; v := !v lsr 32 end;
      if !v lsr 16 <> 0 then begin n := !n + 16; v := !v lsr 16 end;
      if !v lsr 8 <> 0 then begin n := !n + 8; v := !v lsr 8 end;
      if !v lsr 4 <> 0 then begin n := !n + 4; v := !v lsr 4 end;
      if !v lsr 2 <> 0 then begin n := !n + 2; v := !v lsr 2 end;
      if !v lsr 1 <> 0 then n := !n + 1;
      !n
    end

  let observe h v =
    let sw = h.sw in
    if sw.on then begin
      let v = Int.max 0 v in
      let b = bucket_of v in
      h.counts.(b) <- h.counts.(b) + 1;
      h.n <- h.n + 1;
      h.total <- h.total + v;
      if h.n = 1 || v < h.vmin then h.vmin <- v;
      if v > h.vmax then h.vmax <- v;
      if sw.series then fold sw h.ax v
    end

  let count h = h.n
  let sum h = h.total
  let min h = if h.n = 0 then 0 else h.vmin
  let max h = h.vmax

  (* Geometric midpoint of bucket i's range as the representative value. *)
  let bucket_mid i =
    if i = 0 then 0.
    else begin
      let lo = float_of_int (1 lsl (i - 1)) in
      lo *. 1.5
    end

  let quantile h q =
    if h.n = 0 then 0.
    else begin
      let target = Stdlib.max 1 (int_of_float (ceil (q *. float_of_int h.n))) in
      let acc = ref 0 and i = ref 0 and found = ref (-1) in
      while !found < 0 && !i < nbuckets do
        acc := !acc + h.counts.(!i);
        if !acc >= target then found := !i;
        incr i
      done;
      if !found < 0 then float_of_int h.vmax else bucket_mid !found
    end

  let buckets h =
    let acc = ref [] in
    for i = nbuckets - 1 downto 0 do
      if h.counts.(i) > 0 then acc := (1 lsl i, h.counts.(i)) :: !acc
    done;
    !acc

  let clear h =
    Array.fill h.counts 0 nbuckets 0;
    h.n <- 0;
    h.total <- 0;
    h.vmin <- 0;
    h.vmax <- 0
end

type item =
  | C of Counter.t
  | H of Histogram.t

let axis_of = function C c -> c.Counter.ax | H h -> h.Histogram.ax

type state = {
  st_sw : sw;
  st_registry : (string * labels, item) Hashtbl.t;
  (* Each name's kind ([true]: counter), so a clash is one lookup. *)
  st_kinds : (string, bool) Hashtbl.t;
}

let dls : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        st_sw = { on = true; series = false; window = 100_000; cap = 600 };
        st_registry = Hashtbl.create 64;
        st_kinds = Hashtbl.create 64;
      })

let state () = Domain.DLS.get dls

let set_enabled v = (state ()).st_sw.on <- v

let normalize labels = List.sort compare labels

(* Same name must keep one kind across label sets, so dumps stay
   coherent. *)
let get_or_create ~counter ~make name labels =
  let st = state () in
  (match Hashtbl.find_opt st.st_kinds name with
  | Some k ->
    if k <> counter then
      invalid_arg ("Metrics: " ^ name ^ " already registered with another kind")
  | None -> Hashtbl.replace st.st_kinds name counter);
  let key = (name, normalize labels) in
  match Hashtbl.find_opt st.st_registry key with
  | Some item -> item
  | None ->
    let item = make st.st_sw in
    Hashtbl.replace st.st_registry key item;
    item

let counter ?(labels = []) name =
  match
    get_or_create name labels ~counter:true ~make:(fun sw ->
        C { Counter.v = 0; sw; ax = new_axis () })
  with
  | C c -> c
  | H _ -> assert false

let histogram ?(labels = []) name =
  match
    get_or_create name labels ~counter:false ~make:(fun sw ->
        H
          {
            Histogram.counts = Array.make Histogram.nbuckets 0;
            n = 0;
            total = 0;
            vmin = 0;
            vmax = 0;
            sw;
            ax = new_axis ();
          })
  with
  | H h -> h
  | C _ -> assert false

type value =
  | Counter_v of int
  | Histogram_v of { count : int; sum : int; p50 : float; p99 : float; max : int }

let sorted_rows f =
  Hashtbl.fold (fun (name, labels) item acc -> f name labels item acc)
    (state ()).st_registry []
  |> List.sort (fun (n1, l1, _) (n2, l2, _) -> compare (n1, l1) (n2, l2))

let dump () =
  sorted_rows (fun name labels item acc ->
      let v =
        match item with
        | C c -> Counter_v c.Counter.v
        | H h ->
          Histogram_v
            {
              count = Histogram.count h;
              sum = Histogram.sum h;
              p50 = Histogram.quantile h 0.5;
              p99 = Histogram.quantile h 0.99;
              max = Histogram.max h;
            }
      in
      (name, labels, v) :: acc)

let find_counter ?(labels = []) name =
  match Hashtbl.find_opt (state ()).st_registry (name, normalize labels) with
  | Some (C c) -> c.Counter.v
  | _ -> 0

let reset () =
  Hashtbl.iter
    (fun _ item ->
      clear_axis (axis_of item);
      match item with
      | C c -> c.Counter.v <- 0
      | H h -> Histogram.clear h)
    (state ()).st_registry

let arm_series ~window ~capacity =
  if window < 1 then invalid_arg "Metrics.arm_series: window must be positive";
  if capacity < 1 then
    invalid_arg "Metrics.arm_series: capacity must be positive";
  let st = state () in
  st.st_sw.window <- window;
  st.st_sw.cap <- capacity;
  Hashtbl.iter (fun _ item -> clear_axis (axis_of item)) st.st_registry;
  st.st_sw.series <- true

let series () =
  sorted_rows (fun name labels item acc ->
      match points (axis_of item) with
      | [] -> acc
      | pts -> (name, labels, pts) :: acc)

let purge () =
  let st = state () in
  Hashtbl.reset st.st_registry;
  Hashtbl.reset st.st_kinds;
  st.st_sw.on <- true;
  st.st_sw.series <- false
