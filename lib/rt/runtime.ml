open Strovl_sim

type t = {
  engine : Engine.t;
  watches : (Unix.file_descr, unit -> unit) Hashtbl.t;
  mutable fds : Unix.file_descr list;  (** the keys of [watches], for [select] *)
  mutable stopping : bool;
  max_sleep : Time.t;
}

let create ?(seed = 1L) ?(max_sleep = Time.ms 100) () =
  if max_sleep < 1 then invalid_arg "Runtime.create: max_sleep must be positive";
  let engine = Engine.create ~seed () in
  (* Fast-forward virtual time to the monotonic epoch: from here on,
     Engine.now is wall-clock µs. *)
  Engine.run ~until:(Rt_clock.now_us ()) engine;
  { engine; watches = Hashtbl.create 16; fds = []; stopping = false; max_sleep }

let engine t = t.engine
let now t = Engine.now t.engine

let unwatch t fd =
  if Hashtbl.mem t.watches fd then begin
    Hashtbl.remove t.watches fd;
    t.fds <- List.filter (fun f -> f <> fd) t.fds
  end

let watch t fd callback =
  (* Registration order, which sets callback order (see runtime.mli). *)
  if not (Hashtbl.mem t.watches fd) then t.fds <- t.fds @ [ fd ];
  Hashtbl.replace t.watches fd callback

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
  if sleep > 0 || t.fds <> [] then begin
    match Unix.select t.fds [] [] (float_of_int (max 0 sleep) /. 1e6) with
    | readable, _, _ ->
      List.iter
        (fun fd ->
          (* Re-lookup: an earlier callback this round may have unwatched
             (e.g. a daemon closing its socket on a Close frame). *)
          match Hashtbl.find_opt t.watches fd with
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
