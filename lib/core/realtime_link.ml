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
  (* sender *)
  mutable next_lseq : int;
  ring : (int * Packet.t) option array; (* recent packets by lseq mod history *)
  requested : (int, unit) Hashtbl.t; (* lseqs already being retransmitted *)
  (* receiver *)
  mutable recv_high : int;
  mutable cum_floor : int; (* lseqs <= floor considered handled (dup filter base) *)
  seen : (int, unit) Hashtbl.t;
  pending : (int, Engine.handle list ref) Hashtbl.t; (* missing lseq -> request timers *)
  (* [mh_] prefix: the config field [m_retrans] already takes the name. *)
  mh_retrans : Strovl_obs.Metrics.Counter.t;
  mh_requests : Strovl_obs.Metrics.Counter.t;
  mh_window_drops : Strovl_obs.Metrics.Counter.t;
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
    ring = Array.make config.history None;
    requested = Hashtbl.create 32;
    recv_high = 0;
    cum_floor = 0;
    seen = Hashtbl.create 64;
    pending = Hashtbl.create 16;
    mh_retrans =
      Strovl_obs.Metrics.counter
        ~labels:[ ("proto", "realtime") ]
        "strovl_link_retransmits_total";
    mh_requests =
      Strovl_obs.Metrics.counter
        ~labels:[ ("proto", "realtime") ]
        "strovl_link_nacks_total";
    mh_window_drops =
      Strovl_obs.Metrics.counter
        ~labels:[ ("proto", "realtime") ]
        "strovl_link_window_drops_total";
  }

(* ---------------- sender ---------------- *)

let xmit_data t lseq pkt =
  t.ctx.Lproto.xmit (Msg.Data { cls = t.cls; lseq; pkt; auth = None })

let send t pkt =
  t.next_lseq <- t.next_lseq + 1;
  let lseq = t.next_lseq in
  t.ring.(lseq mod t.cfg.history) <- Some (lseq, pkt);
  Hashtbl.remove t.requested lseq;
  xmit_data t lseq pkt

let handle_request t lseq =
  (* Schedule M spaced retransmissions on the first request only; later
     requests for the same packet are the receiver's insurance against
     request loss and must not multiply the responses. *)
  if not (Hashtbl.mem t.requested lseq) then begin
    match t.ring.(lseq mod t.cfg.history) with
    | Some (l, pkt) when l = lseq ->
      Hashtbl.replace t.requested lseq ();
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
    | _ -> () (* too old: fell out of the history ring *)
  end

(* ---------------- receiver ---------------- *)

let cancel_pending t lseq =
  match Hashtbl.find_opt t.pending lseq with
  | Some timers ->
    List.iter (Engine.cancel t.ctx.Lproto.engine) !timers;
    Hashtbl.remove t.pending lseq
  | None -> ()

let request_missing t lseq =
  if not (Hashtbl.mem t.pending lseq) then begin
    let timers = ref [] in
    Hashtbl.replace t.pending lseq timers;
    for i = 0 to t.cfg.n_requests - 1 do
      let h =
        Engine.schedule t.ctx.Lproto.engine ~delay:(i * t.request_spacing)
          (fun () ->
            Strovl_obs.Metrics.Counter.incr t.mh_requests;
            if Strovl_obs.Trace.armed () then
              Lproto.trace t.ctx (Strovl_obs.Trace.Strike (t.ctx.Lproto.link, lseq));
            t.ctx.Lproto.xmit (Msg.Rt_request { lseq }))
      in
      timers := h :: !timers
    done;
    (* Stop tracking the slot once the budget is exhausted (bounds timer
       state). A copy that still arrives afterwards is delivered normally —
       judging it against the application deadline is the destination
       buffer's job, not the link's. *)
    let give_up =
      Engine.schedule t.ctx.Lproto.engine ~delay:(2 * t.cfg.budget) (fun () ->
          Hashtbl.remove t.pending lseq)
    in
    timers := give_up :: !timers
  end

let is_dup t lseq = lseq <= t.cum_floor || Hashtbl.mem t.seen lseq

(* Keep the seen set bounded: slide the floor so it covers the history
   window behind recv_high. *)
let compact t =
  let new_floor = t.recv_high - t.cfg.history in
  if new_floor > t.cum_floor then begin
    for l = t.cum_floor + 1 to new_floor do
      Hashtbl.remove t.seen l;
      cancel_pending t l
    done;
    t.cum_floor <- new_floor
  end

let handle_data t lseq pkt =
  if lseq - t.cum_floor > Reliable_link.max_window then
    (* Same bound as the Reliable Data Link: a forged lseq must not buy
       request timers for every slot it skips. *)
    Strovl_obs.Metrics.Counter.incr t.mh_window_drops
  else if not (is_dup t lseq) then begin
    cancel_pending t lseq;
    if lseq > t.recv_high then begin
      for g = t.recv_high + 1 to lseq - 1 do
        if not (is_dup t g) then request_missing t g
      done;
      t.recv_high <- lseq
    end;
    Hashtbl.replace t.seen lseq ();
    compact t;
    t.ctx.Lproto.up pkt
  end

let recv t = function
  | Msg.Data { lseq; pkt; _ } -> handle_data t lseq pkt
  | Msg.Rt_request { lseq } -> handle_request t lseq
  | Msg.Link_ack _ | Msg.Link_nack _ | Msg.It_ack _ | Msg.Fec_parity _
  | Msg.Hello _ | Msg.Hello_ack _ | Msg.Probe _ | Msg.Probe_ack _
  | Msg.Lsu _ | Msg.Group_update _ ->
    ()
