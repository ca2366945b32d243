type flow_id = { fi_src : int; fi_sport : int; fi_dst : int; fi_dport : int }

let no_flow = { fi_src = -1; fi_sport = -1; fi_dst = -1; fi_dport = -1 }

type reason =
  | No_route
  | Ttl
  | Auth
  | Dup
  | Backpressure
  | Overload
  | Queue_full
  | Priority_evict
  | Wire_loss

type event =
  | Enqueue
  | Forward of int
  | Drop of reason
  | Retransmit of int
  | Nack of int * int
  | Reroute of int * bool
  | Lsu_flood
  | Deliver
  | Fec_recover of int
  | Lsu_apply of int
  | Forward_replay of int
  | Deliver_replay
  | Strike of int * int

type record = { ts : int; node : int; flow : flow_id; seq : int; ev : event }

let dummy = { ts = 0; node = -1; flow = no_flow; seq = -1; ev = Lsu_flood }

type ring = {
  buf : record array;
  mutable next : int; (* next write slot *)
  mutable filled : int; (* records retained, <= Array.length buf *)
  mutable emitted : int; (* records ever emitted *)
}

(* The recorder — ring, clock hook and streaming sink — is domain-local:
   each domain (one parallel run at a time) owns an independent flight
   recorder, so concurrently executing simulations record disjoint streams
   and per-run digests match a sequential run bit for bit. *)
type state = {
  mutable st_armed : bool;
  mutable st_ring : ring option;
  mutable st_clock : unit -> int;
  mutable st_sink : (record -> unit) option;
}

let dls : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { st_armed = false; st_ring = None; st_clock = (fun () -> 0);
        st_sink = None })

let state () = Domain.DLS.get dls

let armed () = (state ()).st_armed
let set_clock f = (state ()).st_clock <- f
let now () = (state ()).st_clock ()
let set_sink f = (state ()).st_sink <- Some f
let clear_sink () = (state ()).st_sink <- None

let enable ?(capacity = 1 lsl 18) () =
  if capacity < 1 then invalid_arg "Trace.enable: capacity must be positive";
  let st = state () in
  st.st_ring <-
    Some { buf = Array.make capacity dummy; next = 0; filled = 0; emitted = 0 };
  st.st_armed <- true

let disable () =
  let st = state () in
  st.st_armed <- false;
  st.st_ring <- None

let clear () =
  match (state ()).st_ring with
  | None -> ()
  | Some r ->
    r.next <- 0;
    r.filled <- 0;
    r.emitted <- 0

let emit ?(flow = no_flow) ?(seq = -1) ~node ev =
  let st = state () in
  match st.st_ring with
  | None -> ()
  | Some r ->
    let cap = Array.length r.buf in
    let rc = { ts = st.st_clock (); node; flow; seq; ev } in
    r.buf.(r.next) <- rc;
    r.next <- (r.next + 1) mod cap;
    if r.filled < cap then r.filled <- r.filled + 1;
    r.emitted <- r.emitted + 1;
    (match st.st_sink with None -> () | Some f -> f rc)

let length () = match (state ()).st_ring with None -> 0 | Some r -> r.filled
let total () = match (state ()).st_ring with None -> 0 | Some r -> r.emitted

let iter f =
  match (state ()).st_ring with
  | None -> ()
  | Some r ->
    let cap = Array.length r.buf in
    let start = (r.next - r.filled + cap) mod cap in
    for i = 0 to r.filled - 1 do
      f r.buf.((start + i) mod cap)
    done

let records () =
  let acc = ref [] in
  iter (fun rec_ -> acc := rec_ :: !acc);
  List.rev !acc

(* ------------------------------ digest ------------------------------- *)

let fnv_prime = 0x100000001b3L
let fnv_offset = 0xcbf29ce484222325L

let mix h x =
  Int64.mul (Int64.logxor h (Int64.of_int x)) fnv_prime

let reason_code = function
  | No_route -> 0
  | Ttl -> 1
  | Auth -> 2
  | Dup -> 3
  | Backpressure -> 4
  | Overload -> 5
  | Queue_full -> 6
  | Priority_evict -> 7
  | Wire_loss -> 8

let event_codes = function
  | Enqueue -> (0, 0, 0)
  | Forward l -> (1, l, 0)
  | Drop r -> (2, reason_code r, 0)
  | Retransmit l -> (3, l, 0)
  | Nack (l, n) -> (4, l, n)
  | Reroute (l, up) -> (5, l, if up then 1 else 0)
  | Lsu_flood -> (6, 0, 0)
  | Deliver -> (7, 0, 0)
  | Fec_recover l -> (8, l, 0)
  (* 9 and 10 were the retired probe events; codes are never reused, so a
     digest stays comparable across versions. *)
  | Lsu_apply origin -> (11, origin, 0)
  | Forward_replay l -> (12, l, 0)
  | Deliver_replay -> (13, 0, 0)
  | Strike (l, n) -> (14, l, n)

let digest () =
  let h = ref (mix fnv_offset (total ())) in
  iter (fun r ->
      let a, b, c = event_codes r.ev in
      let h' =
        List.fold_left mix !h
          [ r.ts; r.node; r.flow.fi_src; r.flow.fi_sport; r.flow.fi_dst;
            r.flow.fi_dport; r.seq; a; b; c ]
      in
      h := h');
  !h

(* ----------------------------- printing ------------------------------ *)

let reason_to_string = function
  | No_route -> "no-route"
  | Ttl -> "ttl"
  | Auth -> "auth"
  | Dup -> "dup"
  | Backpressure -> "backpressure"
  | Overload -> "overload"
  | Queue_full -> "queue-full"
  | Priority_evict -> "priority-evict"
  | Wire_loss -> "wire-loss"

let event_to_string = function
  | Enqueue -> "enqueue"
  | Forward l -> Printf.sprintf "forward(link %d)" l
  | Drop r -> Printf.sprintf "drop(%s)" (reason_to_string r)
  | Retransmit l -> Printf.sprintf "retransmit(link %d)" l
  | Nack (l, n) -> Printf.sprintf "nack(link %d, lseq %d)" l n
  | Reroute (l, up) ->
    Printf.sprintf "reroute(link %d %s)" l (if up then "up" else "down")
  | Lsu_flood -> "lsu-flood"
  | Deliver -> "deliver"
  | Fec_recover l -> Printf.sprintf "fec-recover(link %d)" l
  | Lsu_apply origin -> Printf.sprintf "lsu-apply(origin %d)" origin
  | Forward_replay l -> Printf.sprintf "forward-replay(link %d)" l
  | Deliver_replay -> "deliver-replay"
  | Strike (l, n) -> Printf.sprintf "strike(link %d, lseq %d)" l n

let pp_record ppf r =
  if r.flow == no_flow || r.flow.fi_src < 0 then
    Format.fprintf ppf "%8dus node %-3d %s" r.ts r.node (event_to_string r.ev)
  else
    Format.fprintf ppf "%8dus node %-3d flow %d:%d->%d:%d seq %-5d %s" r.ts
      r.node r.flow.fi_src r.flow.fi_sport r.flow.fi_dst r.flow.fi_dport r.seq
      (event_to_string r.ev)
