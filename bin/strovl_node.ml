(* The overlay daemon: one overlay node of a real deployment. Loads the
   shared topology file, binds this node's UDP address, and speaks the
   full hello/link/routing protocol to its peer daemons — the identical
   stack the simulator runs, driven by the wall clock (Strovl_rt.Runtime).
   Clients attach over the session protocol (bin/strovl_send). *)

open Cmdliner
module Time = Strovl_sim.Time

let make_config hello_ms timeout_ms loss_aware =
  {
    Strovl.Node.default_config with
    Strovl.Node.hello_interval = Time.ms hello_ms;
    hello_timeout = Time.ms timeout_ms;
    loss_aware_routing = loss_aware;
  }

let main topo_path id hello_ms timeout_ms loss_aware duration verbose =
  match Strovl_rt.Topofile.load topo_path with
  | Error e ->
    Printf.eprintf "strovl_node: %s\n" e;
    1
  | Ok topo when id < 0 || id >= Array.length topo.Strovl_rt.Topofile.nodes ->
    Printf.eprintf "strovl_node: no node %d in %s (%d nodes)\n" id topo_path
      (Array.length topo.Strovl_rt.Topofile.nodes);
    1
  | Ok topo -> (
    let config = make_config hello_ms timeout_ms loss_aware in
    let rt = Strovl_rt.Runtime.create () in
    match Strovl_rt.Host.create ~config ~rt ~topo ~id () with
    | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "strovl_node: cannot bind %s:%d: %s\n"
        topo.Strovl_rt.Topofile.nodes.(id).Strovl_rt.Topofile.host
        topo.Strovl_rt.Topofile.nodes.(id).Strovl_rt.Topofile.port
        (Unix.error_message e);
      1
    | host ->
      let stop_now _ = Strovl_rt.Runtime.stop rt in
      Sys.set_signal Sys.sigint (Sys.Signal_handle stop_now);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_now);
      Strovl_rt.Host.start host;
      if verbose then
        Printf.eprintf "strovl_node: node %d up on port %d\n%!" id
          (Strovl_rt.Host.port host);
      (match duration with
      | Some s -> Strovl_rt.Runtime.run_for rt (Time.sec s)
      | None -> Strovl_rt.Runtime.run rt);
      print_endline (Strovl_rt.Host.stats_json host);
      Strovl_rt.Host.close host;
      0)

let topo_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "topo" ] ~docv:"FILE"
        ~doc:"Topology file shared by every daemon (see Strovl_rt.Topofile).")

let id_arg =
  Arg.(
    required
    & opt (some int) None
    & info [ "id" ] ~docv:"N" ~doc:"This daemon's overlay node id.")

let hello_arg =
  Arg.(
    value & opt int 100
    & info [ "hello-ms" ] ~docv:"MS" ~doc:"Hello interval (default 100).")

let timeout_arg =
  Arg.(
    value & opt int 350
    & info [ "hello-timeout-ms" ] ~docv:"MS"
        ~doc:
          "Silence before an incident link is declared down (default 350) — \
           the sub-second rerouting knob.")

let loss_aware_arg =
  Arg.(
    value & flag
    & info [ "loss-aware" ] ~doc:"Route on the loss-inflated metric.")

let duration_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "duration" ] ~docv:"SEC"
        ~doc:
          "Exit (printing a stats line) after this many seconds; default: \
           run until SIGINT/SIGTERM.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Startup chatter on stderr.")

let cmd =
  Cmd.v
    (Cmd.info "strovl_node" ~doc:"Run one overlay node daemon over real UDP")
    Term.(
      const main $ topo_arg $ id_arg $ hello_arg $ timeout_arg $ loss_aware_arg
      $ duration_arg $ verbose_arg)

let () = exit (Cmd.eval' cmd)
