open Strovl_sim

type t = {
  engine : Engine.t;
  mutable watches : (Unix.file_descr * (unit -> unit)) list;
  mutable stopping : bool;
  max_sleep : Time.t;
}

let create ?(seed = 1L) ?(max_sleep = Time.ms 100) () =
  if max_sleep < 1 then invalid_arg "Runtime.create: max_sleep must be positive";
  let engine = Engine.create ~seed () in
  (* Fast-forward virtual time to the monotonic epoch: from here on,
     Engine.now is wall-clock µs. *)
  Engine.run ~until:(Rt_clock.now_us ()) engine;
  { engine; watches = []; stopping = false; max_sleep }

let engine t = t.engine
let now t = Engine.now t.engine

let unwatch t fd = t.watches <- List.filter (fun (f, _) -> f <> fd) t.watches

let watch t fd callback =
  unwatch t fd;
  t.watches <- t.watches @ [ (fd, callback) ]

let stop t = t.stopping <- true

let step t ~deadline =
  let wall = Rt_clock.now_us () in
  Engine.run ~until:(Time.min wall deadline) t.engine;
  let horizon =
    match Engine.next_event_time t.engine with
    | Some at -> Time.min at deadline
    | None -> deadline
  in
  let sleep = Time.min t.max_sleep (Time.sub horizon (Rt_clock.now_us ())) in
  if sleep > 0 || t.watches <> [] then begin
    let fds = List.map fst t.watches in
    match Unix.select fds [] [] (float_of_int (max 0 sleep) /. 1e6) with
    | readable, _, _ ->
      List.iter
        (fun fd ->
          (* Re-lookup: an earlier callback this round may have unwatched
             (e.g. a daemon closing its socket on a Close frame). *)
          match List.assoc_opt fd t.watches with
          | Some callback -> callback ()
          | None -> ())
        readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  end

let run_until t deadline =
  t.stopping <- false;
  while (not t.stopping) && Rt_clock.now_us () < deadline do
    step t ~deadline
  done;
  (* Land the engine exactly on the deadline (when it was finite and we
     weren't stopped early) so back-to-back run_for calls tile cleanly. *)
  if not t.stopping then
    Engine.run ~until:(Time.min deadline (Rt_clock.now_us ())) t.engine

let run_for t dur = run_until t (Time.add (Rt_clock.now_us ()) dur)
let run t = run_until t Time.infinity
