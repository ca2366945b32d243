open Strovl_sim

type config = {
  ack_every : int;
  ack_delay : Time.t;
  nack_repeat : Time.t option;
  rto : Time.t option;
  in_order_forwarding : bool;
  max_nack_repeats : int;
}

let default_config =
  {
    ack_every = 16;
    ack_delay = Time.ms 25;
    nack_repeat = None;
    rto = None;
    in_order_forwarding = false;
    max_nack_repeats = 50;
  }

let max_window = 1 lsl 16

(* Receive-window slot states. *)
let absent = '\000'
let passed = '\001' (* received and already handed up (or given up) *)
let held = '\002' (* received, waiting for in-order forwarding *)

(* Fills the ring slots that hold no packet, so a released packet is not
   kept reachable by its old slot. *)
let no_packet =
  Packet.make
    ~flow:{ Packet.f_src = 0; f_sport = 0; f_dest = Packet.To_node 0; f_dport = 0 }
    ~routing:Packet.Link_state ~service:Packet.Reliable ~seq:0 ~sent_at:0
    ~bytes:0 ()

let initial_ring = 16

type t = {
  ctx : Lproto.ctx;
  cfg : config;
  cls : int;
  (* sender: the unacked lseqs are exactly [s_lo, next_lseq] (empty when
     s_lo > next_lseq); lseq l sits in store.(l land (length - 1)). *)
  mutable next_lseq : int;
  mutable s_lo : int;
  mutable store : Packet.t array;
  mutable rto_timer : Engine.handle option;
  mutable rto_fire : unit -> unit;
  mutable n_sent : int;
  mutable n_retrans : int;
  (* receiver: slot l land (length - 1) of [state] and [held_pkts] covers
     lseq l in (cum, cum + length]; [held_pkts] is only filled for [held]
     slots (ablation mode). *)
  mutable recv_high : int; (* highest lseq received *)
  mutable cum : int; (* highest contiguous lseq received *)
  mutable missing : (int, Engine.handle) Hashtbl.t; (* gap lseq -> nack repeat timer *)
  mutable state : Bytes.t;
  mutable held_pkts : Packet.t array;
  mutable unacked_count : int; (* packets received since last cum ack *)
  mutable ack_timer : Engine.handle option;
  mutable ack_fire : unit -> unit;
  mutable n_up : int;
  (* Domain-local metric handles, bound at [create] time (Strovl_obs.Ctx). *)
  m_retrans : Strovl_obs.Metrics.Counter.t;
  m_nacks : Strovl_obs.Metrics.Counter.t;
  m_window_drops : Strovl_obs.Metrics.Counter.t;
}

let nack_repeat t =
  match t.cfg.nack_repeat with
  | Some d -> d
  | None -> Time.max (Time.ms 2) (Time.add t.ctx.Lproto.rtt_hint t.ctx.Lproto.rtt_hint)

(* The RTO must outlast the worst-case ack round trip, which includes the
   receiver's delayed-ack timer — otherwise an idle sender spuriously
   retransmits while its ack is still in flight. *)
let rto t =
  match t.cfg.rto with
  | Some d -> d
  | None ->
    Time.max (Time.ms 5) (Time.add (3 * t.ctx.Lproto.rtt_hint) t.cfg.ack_delay)

let note_retrans t pkt =
  t.n_retrans <- t.n_retrans + 1;
  Strovl_obs.Metrics.Counter.incr t.m_retrans;
  if Strovl_obs.Series.armed () then
    Strovl_obs.Series.incr
      (Strovl_obs.Series.channel
         ~labels:[ ("link", string_of_int t.ctx.Lproto.link) ]
         "strovl_link_retransmits");
  Lproto.trace_pkt t.ctx pkt (Strovl_obs.Trace.Retransmit t.ctx.Lproto.link)

(* ---------------- sender side ---------------- *)

let xmit_data t lseq pkt =
  t.ctx.Lproto.xmit (Msg.Data { cls = t.cls; lseq; pkt; auth = None })

let[@inline] stored t lseq = t.store.(lseq land (Array.length t.store - 1))

let release t lseq = t.store.(lseq land (Array.length t.store - 1)) <- no_packet

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
  let store = Array.make (2 * Array.length old) no_packet in
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
  t.n_sent <- t.n_sent + 1;
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
  t.ctx.Lproto.xmit (Msg.Link_ack { cls = t.cls; cum = t.cum })

let fire_ack t () =
  t.ack_timer <- None;
  send_cum_ack t

let schedule_ack t =
  t.unacked_count <- t.unacked_count + 1;
  if t.unacked_count >= t.cfg.ack_every then send_cum_ack t
  else if t.ack_timer = None then
    t.ack_timer <-
      Some (Engine.schedule t.ctx.Lproto.engine ~delay:t.cfg.ack_delay t.ack_fire)

(* Whether lseq > cum has been received. *)
let seen t lseq =
  lseq - t.cum <= Bytes.length t.state
  && Bytes.get t.state (lseq land (Bytes.length t.state - 1)) <> absent

(* Grows the receive window until it covers lseq (<= cum + max_window). *)
let cover t lseq =
  let len = Bytes.length t.state in
  if lseq - t.cum > len then begin
    let nlen = ref (2 * len) in
    while lseq - t.cum > !nlen do
      nlen := 2 * !nlen
    done;
    let state = Bytes.make !nlen absent in
    let held_pkts = Array.make !nlen no_packet in
    let omask = len - 1 and mask = !nlen - 1 in
    for l = t.cum + 1 to t.cum + len do
      Bytes.set state (l land mask) (Bytes.get t.state (l land omask));
      held_pkts.(l land mask) <- t.held_pkts.(l land omask)
    done;
    t.state <- state;
    t.held_pkts <- held_pkts
  end

let mark t lseq s = Bytes.set t.state (lseq land (Bytes.length t.state - 1)) s

let advance_cum t =
  let rec go () =
    let next = t.cum + 1 in
    let i = next land (Bytes.length t.state - 1) in
    let s = Bytes.get t.state i in
    if s <> absent then begin
      Bytes.set t.state i absent;
      t.cum <- next;
      if s = held then begin
        let pkt = t.held_pkts.(i) in
        t.held_pkts.(i) <- no_packet;
        t.n_up <- t.n_up + 1;
        t.ctx.Lproto.up pkt
      end;
      go ()
    end
  in
  go ()

let rec nack_loop t lseq tries () =
  if Hashtbl.mem t.missing lseq then begin
    if tries >= t.cfg.max_nack_repeats then begin
      (* The peer will never answer (it rerouted the packet away from this
         link): abandon the slot so timers do not fire forever. The slot is
         marked received-and-forwarded so cum can advance past it. *)
      Hashtbl.remove t.missing lseq;
      mark t lseq passed;
      advance_cum t
    end
    else begin
      Strovl_obs.Metrics.Counter.incr t.m_nacks;
      Lproto.trace t.ctx (Strovl_obs.Trace.Nack (t.ctx.Lproto.link, lseq));
      t.ctx.Lproto.xmit (Msg.Link_nack { cls = t.cls; missing = [ lseq ] });
      let h =
        Engine.schedule t.ctx.Lproto.engine ~delay:(nack_repeat t)
          (nack_loop t lseq (tries + 1))
      in
      Hashtbl.replace t.missing lseq h
    end
  end

let note_gap t lseq =
  if not (Hashtbl.mem t.missing lseq) then begin
    (* First NACK goes out immediately; the timer handles repeats. *)
    Hashtbl.replace t.missing lseq
      (Engine.schedule t.ctx.Lproto.engine ~delay:Time.zero (nack_loop t lseq 0))
  end

let handle_data t lseq pkt =
  if lseq - t.cum > max_window then
    (* Beyond any window an honest sender reaches: a forged or corrupt lseq
       must not buy a NACK timer per skipped slot. *)
    Strovl_obs.Metrics.Counter.incr t.m_window_drops
  else if lseq <= t.cum || seen t lseq then
    send_cum_ack t (* duplicate: our ack was probably lost; refresh *)
  else begin
    (match Hashtbl.find_opt t.missing lseq with
    | Some h ->
      Engine.cancel t.ctx.Lproto.engine h;
      Hashtbl.remove t.missing lseq
    | None -> ());
    if lseq > t.recv_high then begin
      (* New gap slots between recv_high and lseq. *)
      for g = t.recv_high + 1 to lseq - 1 do
        if g > t.cum && not (seen t g) then note_gap t g
      done;
      t.recv_high <- lseq
    end;
    cover t lseq;
    if t.cfg.in_order_forwarding then begin
      (* Ablation: hold until contiguous, forwarding inside advance_cum. *)
      mark t lseq held;
      t.held_pkts.(lseq land (Array.length t.held_pkts - 1)) <- pkt;
      advance_cum t
    end
    else begin
      (* Out-of-order forwarding (§III-A): packets go up as they arrive. *)
      mark t lseq passed;
      advance_cum t;
      t.n_up <- t.n_up + 1;
      t.ctx.Lproto.up pkt
    end;
    schedule_ack t
  end

let create ?(config = default_config) ctx =
  let counter name =
    Strovl_obs.Metrics.counter ~labels:[ ("proto", "reliable") ] name
  in
  let t =
    {
      ctx;
      cfg = config;
      cls = Packet.service_class Packet.Reliable;
      next_lseq = 0;
      s_lo = 1;
      store = Array.make initial_ring no_packet;
      rto_timer = None;
      rto_fire = ignore;
      n_sent = 0;
      n_retrans = 0;
      recv_high = 0;
      cum = 0;
      missing = Hashtbl.create 8;
      state = Bytes.make initial_ring absent;
      held_pkts = Array.make initial_ring no_packet;
      unacked_count = 0;
      ack_timer = None;
      ack_fire = ignore;
      n_up = 0;
      m_retrans = counter "strovl_link_retransmits_total";
      m_nacks = counter "strovl_link_nacks_total";
      m_window_drops = counter "strovl_link_window_drops_total";
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

let sent t = t.n_sent
let retransmissions t = t.n_retrans
let store_size t = t.next_lseq - t.s_lo + 1
let delivered_up t = t.n_up
