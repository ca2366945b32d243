open Strovl_sim

module FlowMap = Map.Make (struct
  type t = Packet.flow

  let compare = Packet.flow_compare
end)

(* Buffer per flow, in packets queued or unacked. *)
let flow_cap = 32

(* Retries after which the retransmit backoff stops doubling. *)
let max_backoff = 6

type entry = {
  e_pkt : Packet.t;
  mutable e_lseq : int; (* -1 until first transmission *)
  mutable e_retries : int;
  mutable e_inflight : bool;
  mutable e_timer : Engine.handle option;
  mutable e_done : bool;
}

type t = {
  ctx : Lproto.ctx;
  cls : int;
  mutable flows : entry Queue.t FlowMap.t; (* per-flow buffer, oldest first *)
  rotation : Packet.flow Queue.t;
  in_rotation : (Packet.flow, unit) Hashtbl.t;
  by_lseq : (int, Packet.flow * entry) Hashtbl.t;
  mutable busy : bool;
  mutable next_lseq : int;
  m_retrans : Strovl_obs.Metrics.Counter.t;
}

let create ctx =
  {
    ctx;
    cls = Packet.service_class Packet.It_reliable;
    flows = FlowMap.empty;
    rotation = Queue.create ();
    in_rotation = Hashtbl.create 16;
    by_lseq = Hashtbl.create 64;
    busy = false;
    next_lseq = 0;
    m_retrans =
      Strovl_obs.Metrics.counter
        ~labels:[ ("proto", "it-reliable") ]
        "strovl_link_retransmits_total";
  }

let base_rto t = Time.max (Time.ms 5) (3 * t.ctx.Lproto.rtt_hint)

let flow_queue t flow =
  match FlowMap.find_opt flow t.flows with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    t.flows <- FlowMap.add flow q t.flows;
    q

let enter_rotation t flow =
  if not (Hashtbl.mem t.in_rotation flow) then begin
    Hashtbl.replace t.in_rotation flow ();
    Queue.add flow t.rotation
  end

let sendable e = (not e.e_inflight) && not e.e_done
let has_sendable q = Queue.fold (fun acc e -> acc || sendable e) false q

(* Transmit one entry: assign an lseq on first send, arm its retransmission
   timer, and pace the scheduler at link bandwidth. *)
let rec transmit t flow e =
  if e.e_lseq < 0 then begin
    t.next_lseq <- Lproto.next_lseq t.next_lseq;
    e.e_lseq <- t.next_lseq
  end
  else begin
    Strovl_obs.Metrics.Counter.incr t.m_retrans;
    if Strovl_obs.Trace.armed () then
      Lproto.trace_pkt t.ctx e.e_pkt (Strovl_obs.Trace.Retransmit t.ctx.Lproto.link)
  end;
  Hashtbl.replace t.by_lseq e.e_lseq (flow, e);
  e.e_inflight <- true;
  let msg = Msg.Data { cls = t.cls; lseq = e.e_lseq; pkt = e.e_pkt; auth = None } in
  t.ctx.Lproto.xmit msg;
  let backoff =
    let shift = min e.e_retries max_backoff in
    base_rto t * (1 lsl shift)
  in
  e.e_timer <-
    Some
      (Engine.schedule t.ctx.Lproto.engine ~delay:backoff (fun () ->
           e.e_timer <- None;
           if not e.e_done then begin
             (* Not acked in time: the next hop dropped it or refused it
                (backpressure). Requeue for another round-robin turn. *)
             e.e_inflight <- false;
             e.e_retries <- e.e_retries + 1;
             enter_rotation t flow;
             service t
           end));
  t.busy <- true;
  ignore
    (Engine.schedule t.ctx.Lproto.engine
       ~delay:
         (Strovl_net.Link.tx_time ~bandwidth_bps:t.ctx.Lproto.bandwidth_bps
            (Wire.size msg))
       (fun () ->
         t.busy <- false;
         service t))

and service t =
  if not t.busy then begin
    match Queue.take_opt t.rotation with
    | None -> ()
    | Some flow -> begin
      Hashtbl.remove t.in_rotation flow;
      let q = flow_queue t flow in
      match Seq.find sendable (Queue.to_seq q) with
      | None -> service t
      | Some e ->
        (* Re-enter the rotation if more remains to send for this flow. *)
        if Queue.fold (fun acc e' -> acc || (e' != e && sendable e')) false q
        then enter_rotation t flow;
        transmit t flow e
    end
  end

let can_accept t ~flow =
  match FlowMap.find_opt flow t.flows with
  | None -> true
  | Some q -> Queue.length q < flow_cap

let offer t pkt =
  let flow = pkt.Packet.flow in
  let q = flow_queue t flow in
  if Queue.length q >= flow_cap then false
  else begin
    let e =
      {
        e_pkt = pkt;
        e_lseq = -1;
        e_retries = 0;
        e_inflight = false;
        e_timer = None;
        e_done = false;
      }
    in
    Queue.add e q;
    enter_rotation t flow;
    service t;
    true
  end

let handle_ack t lseq =
  match Hashtbl.find_opt t.by_lseq lseq with
  | None -> ()
  | Some (flow, e) ->
    if not e.e_done then begin
      e.e_done <- true;
      (match e.e_timer with
      | Some h -> Engine.cancel t.ctx.Lproto.engine h
      | None -> ());
      e.e_timer <- None;
      Hashtbl.remove t.by_lseq lseq;
      let q = flow_queue t flow in
      let kept = Queue.create () in
      Queue.transfer q kept;
      Queue.iter (fun e' -> if e' != e then Queue.add e' q) kept;
      if has_sendable q then begin
        enter_rotation t flow;
        service t
      end
    end

let handle_data t lseq pkt =
  (* Acceptance is the node's decision: room in all onward buffers (or
     local delivery). Only accepted packets are acked — a lost or withheld
     ack is exactly the backpressure mechanism. *)
  if t.ctx.Lproto.try_up pkt then t.ctx.Lproto.xmit (Msg.It_ack { lseq })

let recv t = function
  | Msg.Data { lseq; pkt; _ } -> handle_data t lseq pkt
  | Msg.It_ack { lseq } -> handle_ack t lseq
  | _ -> ()

let total_buffered t = FlowMap.fold (fun _ q acc -> acc + Queue.length q) t.flows 0
