(* The forward-path fixture behind both per-hop cost gates (paper SII-D:
   an intermediate overlay node must add well under 1 ms): a best-effort
   packet originated at SEA and forwarded across the four overlay hops to
   MIA on the US backbone, with [proc_delay = 0], no [start] (no hello
   traffic) and tracing and metrics off. Simulated time is free, so one
   [packet] costs exactly the real compute of those four hops.

   Create it on a freshly spawned domain. The observability state is
   domain-local and a fresh domain must start pristine (the per-run
   isolation behind [-j N]), so the leak checks read the measuring domain's
   own recorder, and the timing never shares its domain with other work. *)

module P = Strovl.Packet

type t = {
  engine : Strovl_sim.Engine.t;
  src : Strovl.Node.t;
  dst : Strovl.Node.t;
  flow : P.flow;
  mutable seq : int;
}

let packet t =
  t.seq <- t.seq + 1;
  let pkt =
    P.make ~flow:t.flow ~routing:P.Link_state ~service:P.Best_effort
      ~seq:t.seq ~sent_at:(Strovl_sim.Engine.now t.engine) ~bytes:1200 ()
  in
  ignore (Strovl.Node.originate t.src pkt);
  Strovl_sim.Engine.run t.engine

let create () =
  Strovl_obs.Trace.disable ();
  Strovl_obs.Metrics.set_enabled false;
  let engine = Strovl_sim.Engine.create () in
  let config =
    {
      Strovl.Net.default_config with
      Strovl.Net.node =
        { Strovl.Node.default_config with Strovl.Node.proc_delay = 0 };
    }
  in
  let net =
    Strovl.Net.create ~config engine (Strovl_topo.Gen.us_backbone ())
  in
  let dst = Strovl.Net.node net 8 in
  Strovl.Node.register_session dst ~port:9 ~deliver:ignore;
  let t =
    {
      engine;
      src = Strovl.Net.node net 0;
      dst;
      flow = { P.f_src = 0; f_sport = 1; f_dest = P.To_node 8; f_dport = 9 };
      seq = 0;
    }
  in
  (* Warm up routing tables, protocol instances and the allocator. *)
  for _ = 1 to 1000 do
    packet t
  done;
  t

let delivered t = (Strovl.Node.counters t.dst).Strovl.Node.delivered
