open Strovl_sim
module Health = Strovl_obs.Health

type event = Rtt of int | Loss of int | Up | Down | Suspect

(* Hellos per round-trip loss sample. *)
let loss_window = 20

(* One monitor per overlay-link endpoint. The estimate itself is the
   endpoint's Health.t; this record holds only the protocol state around
   it: the hello sequence, when the peer was last heard, when the link was
   last suspected, and the current loss window. *)
type t = {
  engine : Engine.t;
  xmit : Msg.t -> unit;
  interval : Time.t;
  timeout : Time.t;
  health : Health.t;
  notify : event -> unit;
  mutable seq : int;
  mutable last_heard : Time.t;
  mutable last_suspect : Time.t;
  mutable window_sent : int;
  mutable window_acked : int;
  mutable stopped : bool;
}

let create ~engine ~xmit ~interval ~timeout ~health ~notify =
  {
    engine;
    xmit;
    interval;
    timeout;
    health;
    notify;
    seq = 0;
    last_heard = Time.zero;
    last_suspect = Time.zero;
    window_sent = 0;
    window_acked = 0;
    stopped = false;
  }

let health m = m.health

let heard m =
  m.last_heard <- Engine.now m.engine;
  if not m.health.Health.alive then begin
    m.health.Health.alive <- true;
    m.notify Up
  end

let on_ack m echo =
  m.window_acked <- m.window_acked + 1;
  m.health.Health.acked <- m.health.Health.acked + 1;
  let sample = Time.sub (Engine.now m.engine) echo in
  if sample >= 0 then begin
    Health.observe_rtt m.health sample;
    m.notify (Rtt m.health.Health.rtt_us)
  end;
  heard m

let recv m = function
  | Msg.Hello { hseq; sent_at } ->
    heard m;
    m.xmit (Msg.Hello_ack { hseq; echo = sent_at })
  | Msg.Hello_ack { echo; _ } -> on_ack m echo
  | Msg.Probe { pseq; sent_at } ->
    (* Stateless echo for peers that still probe; liveness like a hello. *)
    heard m;
    m.xmit (Msg.Probe_ack { pseq; echo = sent_at })
  | _ -> ()

let tick m =
  let now = Engine.now m.engine in
  (* Liveness first: silence beyond the timeout takes the link down. While
     it stays silent, re-suspect every timeout so multihoming can rotate
     through the remaining providers until one works (§II-A). *)
  if Time.sub now m.last_heard > m.timeout then begin
    if m.health.Health.alive then begin
      m.health.Health.alive <- false;
      m.notify Down;
      m.last_suspect <- now;
      m.notify Suspect
    end
    else if Time.sub now m.last_suspect > m.timeout then begin
      m.last_suspect <- now;
      m.notify Suspect
    end
  end;
  m.seq <- m.seq + 1;
  m.health.Health.sent <- m.health.Health.sent + 1;
  (* Every [loss_window] hellos, fold the window's round-trip loss. A hello
     round trip sees 1-(1-p)^2 for per-direction loss p: exactly the
     pessimism a retransmitting link protocol experiences. *)
  m.window_sent <- m.window_sent + 1;
  if m.window_sent >= loss_window then begin
    Health.fold_loss m.health ~sent:m.window_sent ~acked:m.window_acked;
    m.window_sent <- 0;
    m.window_acked <- 0;
    m.notify (Loss m.health.Health.rt_loss_pm)
  end;
  m.xmit (Msg.Hello { hseq = m.seq; sent_at = now })

let start m =
  m.last_heard <- Engine.now m.engine;
  let rec loop () =
    if not m.stopped then begin
      tick m;
      ignore (Engine.schedule m.engine ~delay:m.interval loop)
    end
  in
  loop ()

let stop m = m.stopped <- true
