open Strovl_sim

type mode = Round_robin | Fifo

(* Buffer per source in Round_robin mode, and the one shared buffer in
   Fifo mode, in packets. *)
let per_source_cap = 64
let fifo_cap = 512

type t = {
  ctx : Lproto.ctx;
  mode : mode;
  (* Per-source FIFO buffers (in Fifo mode a single pseudo-source -1 is
     used), in arrival order. *)
  queues : (int, Packet.t Queue.t) Hashtbl.t;
  rotation : int Queue.t; (* sources with queued packets, round-robin order *)
  in_rotation : (int, unit) Hashtbl.t;
  mutable busy : bool;
  mutable pace_fire : unit -> unit; (* ends a transmission's pacing slot *)
  mutable lseq : int;
  m_evicted : Strovl_obs.Metrics.Counter.t;
}

let source_of pkt =
  pkt.Packet.flow.Packet.f_src

let priority_of pkt =
  match pkt.Packet.service with Packet.It_priority p -> p | _ -> 0

let queue t key =
  match Hashtbl.find_opt t.queues key with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.replace t.queues key q;
    q

let enter_rotation t key =
  if not (Hashtbl.mem t.in_rotation key) then begin
    Hashtbl.replace t.in_rotation key ();
    Queue.add key t.rotation
  end

let evicted t p =
  Strovl_obs.Metrics.Counter.incr t.m_evicted;
  Lproto.trace_pkt t.ctx p (Strovl_obs.Trace.Drop Strovl_obs.Trace.Priority_evict)

(* Remove the oldest message having the minimum priority in the queue. The
   queue is rebuilt only when that message is not the oldest of all. *)
let evict_oldest_lowest t q =
  let min_prio = Queue.fold (fun acc p -> min acc (priority_of p)) max_int q in
  if priority_of (Queue.peek q) = min_prio then evicted t (Queue.take q)
  else begin
    let items = Queue.create () in
    Queue.transfer q items;
    let found = ref false in
    Queue.iter
      (fun p ->
        if (not !found) && priority_of p = min_prio then begin
          found := true;
          evicted t p
        end
        else Queue.add p q)
      items
  end

let rec service t =
  if not t.busy then begin
    match Queue.take_opt t.rotation with
    | None -> ()
    | Some key -> begin
      Hashtbl.remove t.in_rotation key;
      let q = queue t key in
      match Queue.take_opt q with
      | None -> service t (* source drained meanwhile *)
      | Some pkt ->
        if not (Queue.is_empty q) then enter_rotation t key;
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
      queues = Hashtbl.create 16;
      rotation = Queue.create ();
      in_rotation = Hashtbl.create 16;
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

let send t pkt =
  let key, cap =
    match t.mode with
    | Round_robin -> (source_of pkt, per_source_cap)
    | Fifo -> (-1, fifo_cap)
  in
  let q = queue t key in
  Queue.add pkt q;
  if Queue.length q > cap then evict_oldest_lowest t q;
  enter_rotation t key;
  service t

let recv t = function
  | Msg.Data { pkt; _ } -> t.ctx.Lproto.up pkt
  | _ -> ()

let queue_len t ~source =
  let key = match t.mode with Round_robin -> source | Fifo -> -1 in
  match Hashtbl.find_opt t.queues key with None -> 0 | Some q -> Queue.length q
