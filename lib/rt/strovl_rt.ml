(** The wall-clock runtime: the same overlay stack the simulator runs,
    over CLOCK_MONOTONIC and real UDP sockets (one per overlay node).

    {!Runtime} drives the simulator's own engine with a select loop;
    {!Host} is a live daemon (node + socket + session interface);
    {!Session_client} is the one client side of that session interface;
    {!Topofile} is the deployment description both daemons and clients
    load; {!Udp} and {!Clock} are the thin OS shims. [bin/strovl_node]
    and [bin/strovl_send] are the command-line faces. *)

module Clock = Rt_clock
module Topofile = Topofile
module Udp = Udp
module Runtime = Runtime
module Host = Rt_net
module Session_client = Session_client
