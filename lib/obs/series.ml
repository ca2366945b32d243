(* Windowed time-series: each channel owns a bounded ring of sim-time
   buckets. The hot path (add/observe) is a handful of integer ops — no
   allocation unless a bucket boundary was crossed — so channels can stay
   armed through soaks. Buckets are aligned to multiples of the window so
   channels fed at different instants still share bucket edges.

   The registry, armed flag and window geometry are all domain-local (each
   parallel run samples into its own channels); a channel embeds its
   owning domain's state so [add] never touches domain-local storage. *)

type labels = (string * string) list

type point = { p_t0 : int; p_n : int; p_sum : int; p_max : int }

type state = {
  st_on : bool ref;
  mutable st_window : int;
  mutable st_cap : int;
  st_registry : (string * labels, ch) Hashtbl.t;
}

and ch = {
  ch_name : string;
  ch_labels : labels;
  ch_st : state;
  mutable buf : point array;
  mutable head : int; (* next write slot *)
  mutable filled : int;
  (* open bucket; cur_t0 = min_int means none *)
  mutable cur_t0 : int;
  mutable cur_n : int;
  mutable cur_sum : int;
  mutable cur_max : int;
}

let dls : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { st_on = ref false; st_window = 100_000; st_cap = 600;
        st_registry = Hashtbl.create 64 })

let state () = Domain.DLS.get dls
let armed () = !((state ()).st_on)

let reset_ch ch =
  ch.buf <- [||];
  ch.head <- 0;
  ch.filled <- 0;
  ch.cur_t0 <- min_int;
  ch.cur_n <- 0;
  ch.cur_sum <- 0;
  ch.cur_max <- min_int

let enable ?(window = 100_000) ?capacity:(cap = 600) () =
  if window < 1 then invalid_arg "Series.enable: window must be positive";
  if cap < 1 then invalid_arg "Series.enable: capacity must be positive";
  let st = state () in
  st.st_window <- window;
  st.st_cap <- cap;
  Hashtbl.iter (fun _ ch -> reset_ch ch) st.st_registry;
  st.st_on := true

let disable () = (state ()).st_on := false

let clear () = Hashtbl.iter (fun _ ch -> reset_ch ch) (state ()).st_registry

let reset () =
  let st = state () in
  st.st_on := false;
  Hashtbl.reset st.st_registry

let channel ?(labels = []) name =
  let st = state () in
  let labels = List.sort compare labels in
  let key = (name, labels) in
  match Hashtbl.find_opt st.st_registry key with
  | Some ch -> ch
  | None ->
    let ch =
      {
        ch_name = name;
        ch_labels = labels;
        ch_st = st;
        buf = [||];
        head = 0;
        filled = 0;
        cur_t0 = min_int;
        cur_n = 0;
        cur_sum = 0;
        cur_max = min_int;
      }
    in
    Hashtbl.replace st.st_registry key ch;
    ch

let flush ch =
  if ch.cur_t0 > min_int && ch.cur_n > 0 then begin
    if Array.length ch.buf = 0 then
      ch.buf <-
        Array.make ch.ch_st.st_cap { p_t0 = 0; p_n = 0; p_sum = 0; p_max = 0 };
    let cap = Array.length ch.buf in
    ch.buf.(ch.head) <-
      { p_t0 = ch.cur_t0; p_n = ch.cur_n; p_sum = ch.cur_sum; p_max = ch.cur_max };
    ch.head <- (ch.head + 1) mod cap;
    if ch.filled < cap then ch.filled <- ch.filled + 1
  end;
  ch.cur_t0 <- min_int;
  ch.cur_n <- 0;
  ch.cur_sum <- 0;
  ch.cur_max <- min_int

let add ch v =
  if !(ch.ch_st.st_on) then begin
    let t = Trace.now () in
    let t0 = t - (t mod ch.ch_st.st_window) in
    if ch.cur_t0 <> t0 then begin
      flush ch;
      ch.cur_t0 <- t0
    end;
    ch.cur_n <- ch.cur_n + 1;
    ch.cur_sum <- ch.cur_sum + v;
    if v > ch.cur_max then ch.cur_max <- v
  end

let incr ch = add ch 1

let points ch =
  let cap = Array.length ch.buf in
  let closed =
    if cap = 0 then []
    else begin
      let start = (ch.head - ch.filled + cap) mod cap in
      List.init ch.filled (fun i -> ch.buf.((start + i) mod cap))
    end
  in
  if ch.cur_t0 > min_int && ch.cur_n > 0 then
    closed
    @ [ { p_t0 = ch.cur_t0; p_n = ch.cur_n; p_sum = ch.cur_sum; p_max = ch.cur_max } ]
  else closed

let channels () =
  Hashtbl.fold (fun _ ch acc -> ch :: acc) (state ()).st_registry []
  |> List.filter (fun ch -> points ch <> [])
  |> List.sort (fun a b -> compare (a.ch_name, a.ch_labels) (b.ch_name, b.ch_labels))

let name ch = ch.ch_name
let labels ch = ch.ch_labels
let mean p = if p.p_n = 0 then 0. else float_of_int p.p_sum /. float_of_int p.p_n

let point_json ch p =
  Printf.sprintf
    "{\"series\":%s,\"labels\":{%s},\"t0\":%d,\"n\":%d,\"sum\":%d,\"max\":%d,\"mean\":%.3f}"
    (Export.json_str ch.ch_name)
    (String.concat ","
       (List.map
          (fun (k, v) -> Export.json_str k ^ ":" ^ Export.json_str v)
          ch.ch_labels))
    p.p_t0 p.p_n p.p_sum p.p_max (mean p)
