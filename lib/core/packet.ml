type node = int
type port = int
type group = int

type dest = To_node of node | To_group of group | Any_of_group of group

type routing = Link_state | Source_mask of Strovl_topo.Bitmask.t

type service =
  | Best_effort
  | Reliable
  | Realtime of { deadline : Strovl_sim.Time.t }
  | It_priority of int
  | It_reliable
  | Fec

type flow = { f_src : node; f_sport : port; f_dest : dest; f_dport : port }

type t = {
  flow : flow;
  routing : routing;
  service : service;
  seq : int;
  sent_at : Strovl_sim.Time.t;
  bytes : int;
  tag : string;
  auth : int64 option;
  hops : int;
  ingress : node;
  replay : bool;
}

let make ~flow ~routing ~service ~seq ~sent_at ~bytes ?(tag = "") ?auth () =
  if bytes < 0 then invalid_arg "Packet.make: negative size";
  {
    flow;
    routing;
    service;
    seq;
    sent_at;
    bytes;
    tag;
    auth;
    hops = 0;
    ingress = -1;
    replay = false;
  }

let placeholder =
  make
    ~flow:{ f_src = 0; f_sport = 0; f_dest = To_node 0; f_dport = 0 }
    ~routing:Link_state ~service:Best_effort ~seq:0 ~sent_at:0 ~bytes:0 ()

let next_hop_copy t = { t with hops = t.hops + 1 }

let with_ingress t node = { t with ingress = node }

let as_replay t = { t with replay = true }

let max_hops = 64

let signable t =
  Printf.sprintf "pkt/%d/%d/%d/%d/%d" t.flow.f_src t.flow.f_sport t.flow.f_dport
    t.seq t.bytes

let service_class = function
  | Best_effort -> 0
  | Reliable -> 1
  | Realtime _ -> 2
  | It_priority _ -> 3
  | It_reliable -> 4
  | Fec -> 5

let class_count = 6

(* Destination ranges are disjoint so distinct flows stay distinct in the
   flight recorder: nodes as themselves, groups offset. *)
let obs_flow f =
  let dst =
    match f.f_dest with
    | To_node n -> n
    | To_group g -> 1_000_000 + g
    | Any_of_group g -> 2_000_000 + g
  in
  {
    Strovl_obs.Trace.fi_src = f.f_src;
    fi_sport = f.f_sport;
    fi_dst = dst;
    fi_dport = f.f_dport;
  }

let dest_compare a b =
  let rank = function To_node _ -> 0 | To_group _ -> 1 | Any_of_group _ -> 2 in
  match (a, b) with
  | To_node x, To_node y | To_group x, To_group y | Any_of_group x, Any_of_group y
    ->
    compare x y
  | _ -> compare (rank a) (rank b)

let flow_compare a b =
  let c = compare a.f_src b.f_src in
  if c <> 0 then c
  else begin
    let c = compare a.f_sport b.f_sport in
    if c <> 0 then c
    else begin
      let c = dest_compare a.f_dest b.f_dest in
      if c <> 0 then c else compare a.f_dport b.f_dport
    end
  end

module Flow_map = Map.Make (struct
  type t = flow

  let compare = flow_compare
end)

let pp_dest ppf = function
  | To_node n -> Format.fprintf ppf "node:%d" n
  | To_group g -> Format.fprintf ppf "group:%d" g
  | Any_of_group g -> Format.fprintf ppf "any:%d" g

let pp_flow ppf f =
  Format.fprintf ppf "%d:%d->%a:%d" f.f_src f.f_sport pp_dest f.f_dest f.f_dport

let service_name = function
  | Best_effort -> "best-effort"
  | Reliable -> "reliable"
  | Realtime _ -> "realtime"
  | It_priority _ -> "it-priority"
  | It_reliable -> "it-reliable"
  | Fec -> "fec"

let pp ppf t =
  Format.fprintf ppf "[%a #%d %s %dB]" pp_flow t.flow t.seq
    (service_name t.service) t.bytes
