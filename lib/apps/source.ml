open Strovl_sim

type t = {
  engine : Engine.t;
  sender : Strovl.Client.sender;
  interval : Time.t;
  bytes : int;
  jitter : float;
  rng : Rng.t option;
  count : int option;
  mutable attempts : int;
  mutable n_sent : int;
  mutable n_refused : int;
  mutable running : bool;
}

let rec tick t () =
  if t.running then begin
    let continue = match t.count with None -> true | Some c -> t.attempts < c in
    if continue then begin
      t.attempts <- t.attempts + 1;
      if Strovl.Client.send t.sender ~bytes:t.bytes () then
        t.n_sent <- t.n_sent + 1
      else t.n_refused <- t.n_refused + 1;
      let delay =
        match t.rng with
        | Some rng when t.jitter > 0. ->
          let f = Rng.uniform_range rng (1. -. t.jitter) (1. +. t.jitter) in
          max 1 (int_of_float (float_of_int t.interval *. f))
        | _ -> t.interval
      in
      ignore (Engine.schedule t.engine ~delay (tick t))
    end
    else t.running <- false
  end

let start ?(jitter = 0.) ?count ?rng ~engine ~sender ~interval ~bytes () =
  if interval <= 0 then invalid_arg "Source.start: interval must be positive";
  let t =
    {
      engine;
      sender;
      interval;
      bytes;
      jitter;
      rng;
      count;
      attempts = 0;
      n_sent = 0;
      n_refused = 0;
      running = true;
    }
  in
  tick t ();
  t

let stop t = t.running <- false
let sent t = t.n_sent
let refused t = t.n_refused

(* 7 MPEG-TS cells of 188 bytes. *)
let video_packet_bytes = 1316

let video ~engine ~sender ?(mbps = 8.0) ?count () =
  let pps = mbps *. 1e6 /. (float_of_int video_packet_bytes *. 8.) in
  let interval = max 1 (int_of_float (1e6 /. pps)) in
  start ~engine ~sender ~interval ~bytes:video_packet_bytes ?count ()

let monitoring ~engine ~sender ?(interval = Time.ms 100) ?(bytes = 400) ?count
    ?rng () =
  let jitter = if rng = None then 0. else 0.2 in
  start ~engine ~sender ~interval ~bytes ~jitter ?rng ?count ()

let haptic ~engine ~sender ?(rate_hz = 1000) ?(bytes = 64) ?count () =
  let interval = max 1 (1_000_000 / rate_hz) in
  start ~engine ~sender ~interval ~bytes ?count ()
