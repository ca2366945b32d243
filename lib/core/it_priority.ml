open Strovl_sim

type mode = Round_robin | Fifo

(* Buffer per source in Round_robin mode, and the one shared buffer in
   Fifo mode, in packets. *)
let per_source_cap = 64
let fifo_cap = 512
let initial_ring = 8

(* One source's buffer (in Fifo mode, the one shared buffer): its packets
   in arrival order, and how many it holds at each priority, so that
   eviction finds the lowest priority without folding over the packets. *)
type buffer = {
  mutable ring : Packet.t array; (* power-of-two length, oldest at [head] *)
  mutable head : int;
  mutable len : int;
  mutable prios : int array; (* the distinct priorities held, ascending *)
  mutable counts : int array; (* packets held at [prios.(i)] *)
  mutable nprios : int;
}

type t = {
  ctx : Lproto.ctx;
  mode : mode;
  cap : int;
  (* By source overlay node; Fifo mode uses the one key -1. *)
  buffers : (int, buffer) Hashtbl.t;
  (* The buffers holding packets, in round-robin order: a buffer is in the
     rotation exactly while it is not empty. *)
  rotation : buffer Queue.t;
  mutable busy : bool;
  mutable pace_fire : unit -> unit; (* ends a transmission's pacing slot *)
  mutable lseq : int;
  m_evicted : Strovl_obs.Metrics.Counter.t;
}

let source_of pkt =
  pkt.Packet.flow.Packet.f_src

let priority_of pkt =
  match pkt.Packet.service with Packet.It_priority p -> p | _ -> 0

(* ---------------- per-priority counts ---------------- *)

(* Where priority [p] is, or would go, among the held ones. *)
let prio_index b p =
  let i = ref 0 in
  while !i < b.nprios && b.prios.(!i) < p do
    incr i
  done;
  !i

let count_in b p =
  let i = prio_index b p in
  if i < b.nprios && b.prios.(i) = p then b.counts.(i) <- b.counts.(i) + 1
  else begin
    if b.nprios = Array.length b.prios then begin
      (* doubled: the copied upper half is free space *)
      b.prios <- Array.append b.prios b.prios;
      b.counts <- Array.append b.counts b.counts
    end;
    let above = b.nprios - i in
    Array.blit b.prios i b.prios (i + 1) above;
    Array.blit b.counts i b.counts (i + 1) above;
    b.prios.(i) <- p;
    b.counts.(i) <- 1;
    b.nprios <- b.nprios + 1
  end

let count_out b p =
  let i = prio_index b p in
  b.counts.(i) <- b.counts.(i) - 1;
  if b.counts.(i) = 0 then begin
    let above = b.nprios - i - 1 in
    Array.blit b.prios (i + 1) b.prios i above;
    Array.blit b.counts (i + 1) b.counts i above;
    b.nprios <- b.nprios - 1
  end

(* ---------------- the arrival-order ring ---------------- *)

let slot b i = (b.head + i) land (Array.length b.ring - 1)

let push b pkt =
  if b.len = Array.length b.ring then begin
    let ring = Array.make (2 * b.len) Packet.placeholder in
    for i = 0 to b.len - 1 do
      ring.(i) <- b.ring.(slot b i)
    done;
    b.ring <- ring;
    b.head <- 0
  end;
  b.ring.(slot b b.len) <- pkt;
  b.len <- b.len + 1;
  count_in b (priority_of pkt)

let take b =
  let pkt = b.ring.(b.head) in
  b.ring.(b.head) <- Packet.placeholder;
  b.head <- slot b 1;
  b.len <- b.len - 1;
  count_out b (priority_of pkt);
  pkt

(* Removes the oldest packet of the lowest priority held. It is the oldest
   of all whenever every packet has one priority, and a single [take] then;
   otherwise the packets older than it each move up one slot. *)
let take_oldest_lowest b =
  let lo = b.prios.(0) in
  let i = ref 0 in
  while priority_of b.ring.(slot b !i) <> lo do
    incr i
  done;
  let victim = b.ring.(slot b !i) in
  for j = !i downto 1 do
    b.ring.(slot b j) <- b.ring.(slot b (j - 1))
  done;
  b.ring.(b.head) <- victim;
  take b

(* ---------------- scheduling ---------------- *)

let buffer t key =
  match Hashtbl.find t.buffers key with
  | b -> b
  | exception Not_found ->
    let b =
      {
        ring = Array.make initial_ring Packet.placeholder;
        head = 0;
        len = 0;
        prios = [| 0 |];
        counts = [| 0 |];
        nprios = 0;
      }
    in
    Hashtbl.replace t.buffers key b;
    b

let evicted t p =
  Strovl_obs.Metrics.Counter.incr t.m_evicted;
  Lproto.trace_pkt t.ctx p (Strovl_obs.Trace.Drop Strovl_obs.Trace.Priority_evict)

let service t =
  if not t.busy then begin
    match Queue.take_opt t.rotation with
    | None -> ()
    | Some b ->
      let pkt = take b in
      if b.len > 0 then Queue.add b t.rotation;
      t.lseq <- Lproto.next_lseq t.lseq;
      let msg =
        Msg.Data
          {
            cls = Packet.service_class pkt.Packet.service;
            lseq = t.lseq;
            pkt;
            auth = None;
          }
      in
      t.ctx.Lproto.xmit msg;
      t.busy <- true;
      (* Self-pace at what the link charges this message, so round
         robin, not the NIC FIFO, decides ordering under load. *)
      ignore
        (Engine.schedule t.ctx.Lproto.engine
           ~delay:
             (Strovl_net.Link.tx_time ~bandwidth_bps:t.ctx.Lproto.bandwidth_bps
                (Wire.size msg))
           t.pace_fire)
  end

(* The pacing slot of the last transmission is over: send the next. *)
let end_pacing t () =
  t.busy <- false;
  service t

let create ~mode ctx =
  let t =
    {
      ctx;
      mode;
      cap = (match mode with Round_robin -> per_source_cap | Fifo -> fifo_cap);
      buffers = Hashtbl.create 16;
      rotation = Queue.create ();
      busy = false;
      pace_fire = ignore;
      lseq = 0;
      m_evicted =
        Strovl_obs.Metrics.counter
          ~labels:[ ("proto", "it-priority") ]
          "strovl_link_queue_drops_total";
    }
  in
  (* Built once here, not on every transmitted packet. *)
  t.pace_fire <- end_pacing t;
  t

let key t source = match t.mode with Round_robin -> source | Fifo -> -1

let send t pkt =
  let b = buffer t (key t (source_of pkt)) in
  if b.len < t.cap then begin
    push b pkt;
    if b.len = 1 then Queue.add b t.rotation
  end
  else if priority_of pkt < b.prios.(0) then
    (* The newcomer alone has the lowest priority: it is the one to drop. *)
    evicted t pkt
  else begin
    evicted t (take_oldest_lowest b);
    push b pkt
  end;
  service t

let recv t = function
  | Msg.Data { pkt; _ } -> t.ctx.Lproto.up pkt
  | _ -> ()

let queue_len t ~source =
  match Hashtbl.find_opt t.buffers (key t source) with
  | None -> 0
  | Some b -> b.len
