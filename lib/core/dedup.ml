module Flow_map = Packet.Flow_map

type window = {
  bits : Bytes.t; (* ring of seen flags indexed by seq mod window *)
  mutable high : int; (* highest seq recorded, -1 initially *)
}

(* Sequence numbers remembered per flow. *)
let window_len = 4096

type t = {
  mutable map : window Flow_map.t;
  (* Last flow touched: packets arrive in per-flow bursts, so one memo slot
     skips the map descent (and its option allocation) almost always. *)
  mutable last : (Packet.flow * window) option;
}

let create () = { map = Flow_map.empty; last = None }

let get_window t flow =
  match t.last with
  | Some (f, w) when f == flow || Packet.flow_compare f flow = 0 -> w
  | _ ->
    let w =
      match Flow_map.find_opt flow t.map with
      | Some w -> w
      | None ->
        let w = { bits = Bytes.make window_len '\000'; high = -1 } in
        t.map <- Flow_map.add flow w t.map;
        w
    in
    t.last <- Some (flow, w);
    w

let idx seq = seq mod window_len

let lookup w seq =
  if seq < 0 then invalid_arg "Dedup: negative seq";
  if w.high >= 0 && seq <= w.high - window_len then `Old
  else if seq <= w.high then
    if Bytes.get w.bits (idx seq) = '\001' then `Seen else `Fresh
  else `Ahead

let record w seq =
  if seq > w.high then begin
    (* Slide the window forward, clearing slots for sequence numbers that
       now fall inside it but were never recorded. *)
    let from = max (w.high + 1) (seq - window_len + 1) in
    for s = from to seq - 1 do
      Bytes.set w.bits (idx s) '\000'
    done;
    w.high <- seq
  end;
  Bytes.set w.bits (idx seq) '\001'

let seen t flow seq =
  let w = get_window t flow in
  match lookup w seq with
  | `Old -> true
  | `Seen -> true
  | `Fresh | `Ahead ->
    record w seq;
    false

let peek t flow seq =
  match t.last with
  | Some (f, w) when f == flow || Packet.flow_compare f flow = 0 -> (
    match lookup w seq with `Old | `Seen -> true | `Fresh | `Ahead -> false)
  | _ -> (
    match Flow_map.find_opt flow t.map with
    | None -> false
    | Some w -> (
      match lookup w seq with `Old | `Seen -> true | `Fresh | `Ahead -> false))

let flows t = Flow_map.cardinal t.map
