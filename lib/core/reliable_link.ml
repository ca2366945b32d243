open Strovl_sim

(* A cumulative ack goes out every [ack_every] packets, or [ack_delay]
   after the first unacked one. *)
let ack_every = 16
let ack_delay = Time.ms 25

(* A gap is given up after this many unanswered NACKs: when the peer
   rerouted the packets away from a dead link, the slot never fills. *)
let max_nack_repeats = 50

let initial_ring = 16

type t = {
  ctx : Lproto.ctx;
  in_order : bool;
  cls : int;
  (* sender: the unacked lseqs are exactly [s_lo, next_lseq] (empty when
     s_lo > next_lseq); lseq l sits in store.(l land (length - 1)). *)
  mutable next_lseq : int;
  mutable s_lo : int;
  mutable store : Packet.t array;
  mutable rto_timer : Engine.handle option;
  mutable rto_fire : unit -> unit;
  (* receiver: the window's floor is cum, the highest contiguous lseq
     received (or given up); [held] keeps the packets above it that wait
     for in-order forwarding (ablation mode only). *)
  win : Rx_window.t;
  held : (int, Packet.t) Hashtbl.t;
  mutable unacked_count : int; (* packets received since last cum ack *)
  mutable ack_timer : Engine.handle option;
  mutable ack_fire : unit -> unit;
  (* Domain-local metric handles, bound at [create] time (Strovl_obs.Ctx). *)
  m_retrans : Strovl_obs.Metrics.Counter.t;
  m_nacks : Strovl_obs.Metrics.Counter.t;
}

let nack_repeat t =
  Time.max (Time.ms 2) (Time.add t.ctx.Lproto.rtt_hint t.ctx.Lproto.rtt_hint)

(* The RTO must outlast the worst-case ack round trip, which includes the
   receiver's delayed-ack timer — otherwise an idle sender spuriously
   retransmits while its ack is still in flight. *)
let rto t =
  Time.max (Time.ms 5) (Time.add (3 * t.ctx.Lproto.rtt_hint) ack_delay)

let note_retrans t pkt =
  Strovl_obs.Metrics.Counter.incr t.m_retrans;
  if Strovl_obs.Trace.armed () then
    Lproto.trace_pkt t.ctx pkt (Strovl_obs.Trace.Retransmit t.ctx.Lproto.link)

(* ---------------- sender side ---------------- *)

let xmit_data t lseq pkt =
  t.ctx.Lproto.xmit (Msg.Data { cls = t.cls; lseq; pkt; auth = None })

let[@inline] stored t lseq = t.store.(lseq land (Array.length t.store - 1))

let release t lseq =
  t.store.(lseq land (Array.length t.store - 1)) <- Packet.placeholder

let arm_rto t =
  (match t.rto_timer with
  | Some h -> Engine.cancel t.ctx.Lproto.engine h
  | None -> ());
  if t.s_lo > t.next_lseq then t.rto_timer <- None
  else
    t.rto_timer <-
      Some (Engine.schedule t.ctx.Lproto.engine ~delay:(rto t) t.rto_fire)

(* Tail-loss probe: retransmit the oldest unacked packet. *)
let fire_rto t () =
  t.rto_timer <- None;
  if t.s_lo <= t.next_lseq then begin
    let pkt = stored t t.s_lo in
    note_retrans t pkt;
    xmit_data t t.s_lo pkt
  end;
  arm_rto t

let grow_store t =
  let old = t.store in
  let omask = Array.length old - 1 in
  let store = Array.make (2 * Array.length old) Packet.placeholder in
  let mask = Array.length store - 1 in
  for l = t.s_lo to t.next_lseq do
    store.(l land mask) <- old.(l land omask)
  done;
  t.store <- store

let send t pkt =
  let lseq = t.next_lseq + 1 in
  if lseq - t.s_lo >= Array.length t.store then grow_store t;
  t.next_lseq <- lseq;
  t.store.(lseq land (Array.length t.store - 1)) <- pkt;
  xmit_data t lseq pkt;
  if t.rto_timer = None then arm_rto t

let handle_ack t cum =
  (* Everything <= cum is acked; an ack beyond what was sent clears the
     store and no more. *)
  let hi = min cum t.next_lseq in
  for l = t.s_lo to hi do
    release t l
  done;
  if hi >= t.s_lo then t.s_lo <- hi + 1;
  arm_rto t

let handle_nack t missing =
  List.iter
    (fun lseq ->
      if lseq >= t.s_lo && lseq <= t.next_lseq then begin
        let pkt = stored t lseq in
        note_retrans t pkt;
        xmit_data t lseq pkt
      end
      (* else already acked: the nack crossed a retransmission *))
    missing;
  arm_rto t

(* ---------------- receiver side ---------------- *)

let send_cum_ack t =
  (match t.ack_timer with
  | Some h -> Engine.cancel t.ctx.Lproto.engine h
  | None -> ());
  t.ack_timer <- None;
  t.unacked_count <- 0;
  t.ctx.Lproto.xmit (Msg.Link_ack { cls = t.cls; cum = Rx_window.floor t.win })

let fire_ack t () =
  t.ack_timer <- None;
  send_cum_ack t

let schedule_ack t =
  t.unacked_count <- t.unacked_count + 1;
  if t.unacked_count >= ack_every then send_cum_ack t
  else if t.ack_timer = None then
    t.ack_timer <-
      Some (Engine.schedule t.ctx.Lproto.engine ~delay:ack_delay t.ack_fire)

let advance_cum t =
  while Rx_window.take_next t.win do
    if t.in_order then begin
      let cum = Rx_window.floor t.win in
      match Hashtbl.find_opt t.held cum with
      | Some pkt ->
        Hashtbl.remove t.held cum;
        t.ctx.Lproto.up pkt
      | None -> ()
    end
  done

(* A gap's NACK timer repeats until the slot is seen: a retransmission that
   fills it ends the loop at the next firing. *)
let rec nack_loop t lseq tries () =
  if not (Rx_window.seen t.win lseq) then begin
    if tries >= max_nack_repeats then begin
      (* The peer will never answer (it rerouted the packet away from this
         link): abandon the slot so timers do not fire forever. The slot is
         marked seen so cum can advance past it. *)
      Rx_window.set t.win lseq;
      advance_cum t
    end
    else begin
      Strovl_obs.Metrics.Counter.incr t.m_nacks;
      if Strovl_obs.Trace.armed () then
        Lproto.trace t.ctx (Strovl_obs.Trace.Nack (t.ctx.Lproto.link, lseq));
      t.ctx.Lproto.xmit (Msg.Link_nack { cls = t.cls; missing = [ lseq ] });
      ignore
        (Engine.schedule t.ctx.Lproto.engine ~delay:(nack_repeat t)
           (nack_loop t lseq (tries + 1)))
    end
  end

let handle_data t lseq pkt =
  if Rx_window.beyond t.win lseq then
    () (* counted: a forged or corrupt lseq must not buy a NACK timer per
          skipped slot *)
  else if Rx_window.seen t.win lseq then
    send_cum_ack t (* duplicate: our ack was probably lost; refresh *)
  else begin
    (* New gap slots between the highest lseq received and this one; the
       first NACK goes out immediately, the timer handles repeats. *)
    for g = Rx_window.high t.win + 1 to lseq - 1 do
      ignore (Engine.schedule t.ctx.Lproto.engine ~delay:Time.zero (nack_loop t g 0))
    done;
    Rx_window.set t.win lseq;
    if t.in_order then begin
      (* Ablation: hold until contiguous, forwarding inside advance_cum. *)
      Hashtbl.replace t.held lseq pkt;
      advance_cum t
    end
    else begin
      (* Out-of-order forwarding (§III-A): packets go up as they arrive. *)
      advance_cum t;
      t.ctx.Lproto.up pkt
    end;
    schedule_ack t
  end

let create ~in_order ctx =
  let counter name =
    Strovl_obs.Metrics.counter ~labels:[ ("proto", "reliable") ] name
  in
  let t =
    {
      ctx;
      in_order;
      cls = Packet.service_class Packet.Reliable;
      next_lseq = 0;
      s_lo = 1;
      store = Array.make initial_ring Packet.placeholder;
      rto_timer = None;
      rto_fire = ignore;
      win = Rx_window.create ~proto:"reliable";
      held = Hashtbl.create 8;
      unacked_count = 0;
      ack_timer = None;
      ack_fire = ignore;
      m_retrans = counter "strovl_link_retransmits_total";
      m_nacks = counter "strovl_link_nacks_total";
    }
  in
  (* Built once here, not on every re-arm. *)
  t.rto_fire <- fire_rto t;
  t.ack_fire <- fire_ack t;
  t

let recv t = function
  | Msg.Data { lseq; pkt; _ } -> handle_data t lseq pkt
  | Msg.Link_ack { cum; _ } -> handle_ack t cum
  | Msg.Link_nack { missing; _ } -> handle_nack t missing
  | Msg.Rt_request _ | Msg.It_ack _ | Msg.Fec_parity _ | Msg.Hello _
  | Msg.Hello_ack _ | Msg.Probe _ | Msg.Probe_ack _ | Msg.Lsu _
  | Msg.Group_update _ ->
    ()

let drain_store t =
  let pkts = ref [] in
  for l = t.next_lseq downto t.s_lo do
    pkts := stored t l :: !pkts;
    release t l
  done;
  t.s_lo <- t.next_lseq + 1;
  (match t.rto_timer with
  | Some h -> Engine.cancel t.ctx.Lproto.engine h
  | None -> ());
  t.rto_timer <- None;
  !pkts

let store_size t = t.next_lseq - t.s_lo + 1
