open Strovl_sim

type config = {
  n_requests : int;
  m_retrans : int;
  budget : Time.t;
  history : int;
  request_spacing : Time.t option;
  retrans_spacing : Time.t option;
}

let default_config =
  {
    n_requests = 3;
    m_retrans = 3;
    budget = Time.ms 160;
    history = 4096;
    request_spacing = None;
    retrans_spacing = None;
  }

type t = {
  ctx : Lproto.ctx;
  cfg : config;
  cls : int;
  request_spacing : Time.t;
  retrans_spacing : Time.t;
  (* sender: the last [history] packets by [lseq land (length - 1)], in a
     power-of-two ring that starts empty and doubles on [send]; a slot
     holds the packet of lseq [lseqs.(i)], or none while that is 0 *)
  mutable next_lseq : int;
  mutable lseqs : int array;
  mutable pkts : Packet.t array;
  mutable requested : Bytes.t; (* '\001': the slot's packet is being retransmitted *)
  (* receiver: the floor trails the highest lseq received by [history] *)
  win : Rx_window.t;
  (* [mh_] prefix: the config field [m_retrans] already takes the name. *)
  mh_retrans : Strovl_obs.Metrics.Counter.t;
  mh_requests : Strovl_obs.Metrics.Counter.t;
}

let create ?(config = default_config) ctx =
  if config.n_requests < 1 || config.m_retrans < 1 then
    invalid_arg "Realtime_link: N and M must be >= 1";
  (* Spread the attempts over what remains of the budget after one request
     round trip and a detection allowance, so "even the Mth (final)
     response to the Nth request will still reach the destination on time"
     (SIV-A): detection + (N-1)·Sq + rtt + (M-1)·Sr <= budget, with
     Sr = Sq/(M+1). *)
  let request_spacing =
    match config.request_spacing with
    | Some s -> s
    | None ->
      let detection_allowance = config.budget / 8 in
      let avail =
        max (Time.ms 2) (config.budget - ctx.Lproto.rtt_hint - detection_allowance)
      in
      if config.n_requests = 1 then avail
      else begin
        let denom =
          float_of_int (config.n_requests - 1)
          +. (float_of_int (config.m_retrans - 1)
             /. float_of_int (config.m_retrans + 1))
        in
        max (Time.ms 1) (int_of_float (float_of_int avail /. denom))
      end
  in
  let retrans_spacing =
    match config.retrans_spacing with
    | Some s -> s
    | None -> request_spacing / (config.m_retrans + 1)
  in
  {
    ctx;
    cfg = config;
    cls = Packet.service_class (Packet.Realtime { deadline = config.budget });
    request_spacing;
    retrans_spacing;
    next_lseq = 0;
    lseqs = [||];
    pkts = [||];
    requested = Bytes.empty;
    win = Rx_window.create ~proto:"realtime";
    mh_retrans =
      Strovl_obs.Metrics.counter
        ~labels:[ ("proto", "realtime") ]
        "strovl_link_retransmits_total";
    mh_requests =
      Strovl_obs.Metrics.counter
        ~labels:[ ("proto", "realtime") ]
        "strovl_link_nacks_total";
  }

(* ---------------- sender ---------------- *)

let xmit_data t lseq pkt =
  t.ctx.Lproto.xmit (Msg.Data { cls = t.cls; lseq; pkt; auth = None })

(* Doubles the ring, each kept packet moving to its slot in the larger
   one; the ring holds every lseq in (next_lseq - length, next_lseq]. The
   packet being sent fills the empty slots. *)
let grow t pkt =
  let cap = max 1 (2 * Array.length t.lseqs) in
  let lseqs = Array.make cap 0 and pkts = Array.make cap pkt in
  let requested = Bytes.make cap '\000' in
  Array.iteri
    (fun i l ->
      if l > 0 then begin
        let j = l land (cap - 1) in
        lseqs.(j) <- l;
        pkts.(j) <- t.pkts.(i);
        Bytes.set requested j (Bytes.get t.requested i)
      end)
    t.lseqs;
  t.lseqs <- lseqs;
  t.pkts <- pkts;
  t.requested <- requested

let send t pkt =
  t.next_lseq <- t.next_lseq + 1;
  let lseq = t.next_lseq in
  if lseq > Array.length t.lseqs && Array.length t.lseqs < t.cfg.history then
    grow t pkt;
  let i = lseq land (Array.length t.lseqs - 1) in
  t.lseqs.(i) <- lseq;
  t.pkts.(i) <- pkt;
  Bytes.set t.requested i '\000';
  xmit_data t lseq pkt

let handle_request t lseq =
  (* Schedule M spaced retransmissions on the first request only; later
     requests for the same packet are the receiver's insurance against
     request loss and must not multiply the responses. Only the last
     [history] lseqs are honoured: a ring rounded up to a power of two may
     still hold an older packet, which counts as forgotten. A request for
     a packet already being retransmitted, or one that fell out of the
     history ring, is ignored. *)
  let i = lseq land (Array.length t.lseqs - 1) in
  if
    lseq > max 0 (t.next_lseq - t.cfg.history)
    && lseq <= t.next_lseq
    && t.lseqs.(i) = lseq
    && Bytes.get t.requested i = '\000'
  then begin
    let pkt = t.pkts.(i) in
    Bytes.set t.requested i '\001';
    for j = 0 to t.cfg.m_retrans - 1 do
      ignore
        (Engine.schedule t.ctx.Lproto.engine ~delay:(j * t.retrans_spacing)
           (fun () ->
             Strovl_obs.Metrics.Counter.incr t.mh_retrans;
             if Strovl_obs.Trace.armed () then
               Lproto.trace_pkt t.ctx pkt
                 (Strovl_obs.Trace.Retransmit t.ctx.Lproto.link);
             xmit_data t lseq pkt))
    done
  end

(* ---------------- receiver ---------------- *)

(* A request timer that finds its packet received, or slid below the
   window, sends nothing: receiving the packet ends the strikes. A copy
   that arrives after the last request is delivered normally — judging it
   against the application deadline is the destination buffer's job, not
   the link's. *)
let request_missing t lseq =
  for i = 0 to t.cfg.n_requests - 1 do
    ignore
      (Engine.schedule t.ctx.Lproto.engine ~delay:(i * t.request_spacing)
         (fun () ->
           if not (Rx_window.seen t.win lseq) then begin
             Strovl_obs.Metrics.Counter.incr t.mh_requests;
             if Strovl_obs.Trace.armed () then
               Lproto.trace t.ctx (Strovl_obs.Trace.Strike (t.ctx.Lproto.link, lseq));
             t.ctx.Lproto.xmit (Msg.Rt_request { lseq })
           end))
  done

let handle_data t lseq pkt =
  if Rx_window.beyond t.win lseq then
    () (* counted: a forged lseq must not buy request timers for every slot
          it skips *)
  else if not (Rx_window.seen t.win lseq) then begin
    let high = Rx_window.high t.win in
    if lseq > high then begin
      (* Keep the window [history] long behind the new high; only the gaps
         inside it are worth a request. *)
      let floor = lseq - t.cfg.history in
      Rx_window.slide t.win floor;
      for g = max high floor + 1 to lseq - 1 do
        request_missing t g
      done
    end;
    Rx_window.set t.win lseq;
    t.ctx.Lproto.up pkt
  end

let recv t = function
  | Msg.Data { lseq; pkt; _ } -> handle_data t lseq pkt
  | Msg.Rt_request { lseq } -> handle_request t lseq
  | Msg.Link_ack _ | Msg.Link_nack _ | Msg.It_ack _ | Msg.Fec_parity _
  | Msg.Hello _ | Msg.Hello_ack _ | Msg.Probe _ | Msg.Probe_ack _
  | Msg.Lsu _ | Msg.Group_update _ ->
    ()
