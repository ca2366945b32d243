open Strovl_sim
module Gen = Strovl_topo.Gen
module Graph = Strovl_topo.Graph
module Dijkstra = Strovl_topo.Dijkstra

(* The path caches are looked up on every wire transmission, keyed by
   distinct packed ints: compare and hash them as ints (the identity hash
   spreads a dense key range evenly), not through the polymorphic
   primitives. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (k : int) = k
end)

type t = {
  engine : Engine.t;
  spec : Gen.spec;
  seg_up : bool array; (* actual state, changes immediately *)
  routing_up : bool array; (* what routing believes, lags by convergence *)
  seg_loss : Loss.t array;
  convergence : Time.t;
  isp_graph : Graph.t array; (* per ISP; link l of isp graph = segment isp_seg.(isp).(l) *)
  isp_seg : int array array;
  (* Route cache: per ISP, per source site, the Dijkstra result under the
     current routing view. Invalidated by bumping the epoch. *)
  mutable epoch : int;
  cache : (int * int, int * Dijkstra.result) Hashtbl.t; (* (isp,src) -> (epoch, result) *)
  (* Per-transmission fast path: flat segment arrays for routed paths and
     resolved peering choices, keyed by packed ints and validated against
     the epoch, so steady-state wire transmissions never re-walk Dijkstra
     parents or re-fold peering sites. *)
  seg_cache : (int * int array option) Itbl.t;
      (* isp,src,dst -> epoch, segments *)
  peer_cache : (int * int * int) Itbl.t;
      (* isps,src,dst -> epoch, peer site (-1 none), total delay *)
  presence : bool array array; (* isp -> site -> has fiber *)
  peering_delay : Time.t;
  peering_loss : Loss.t;
  (* Metric handles from this domain's registry, bound at [create] time so
     they belong to the run that owns this underlay (see Strovl_obs.Ctx). *)
  m_seg_fail : Strovl_obs.Metrics.Counter.t;
  m_seg_repair : Strovl_obs.Metrics.Counter.t;
  m_lost : Strovl_obs.Metrics.Counter.t;
}

let engine t = t.engine
let spec t = t.spec
let nsites t = Array.length t.spec.Gen.sites
let nsegments t = Array.length t.spec.Gen.segments

let create ?(convergence = Time.sec 40) engine spec =
  let nseg = Array.length spec.Gen.segments in
  let nsite = Array.length spec.Gen.sites in
  let isp_graph = Array.init spec.Gen.nisps (fun _ -> Graph.create ~n:nsite) in
  let isp_seg = Array.make spec.Gen.nisps [||] in
  let tmp = Array.make spec.Gen.nisps [] in
  Array.iteri
    (fun si s ->
      let g = isp_graph.(s.Gen.seg_isp) in
      ignore (Graph.add_link g s.Gen.seg_a s.Gen.seg_b);
      tmp.(s.Gen.seg_isp) <- si :: tmp.(s.Gen.seg_isp))
    spec.Gen.segments;
  Array.iteri (fun isp l -> isp_seg.(isp) <- Array.of_list (List.rev l)) tmp;
  let presence =
    Array.init spec.Gen.nisps (fun isp ->
        Array.init nsite (fun site -> Graph.degree isp_graph.(isp) site > 0))
  in
  {
    engine;
    spec;
    seg_up = Array.make nseg true;
    routing_up = Array.make nseg true;
    seg_loss = Array.make nseg Loss.perfect;
    convergence;
    isp_graph;
    isp_seg;
    epoch = 0;
    cache = Hashtbl.create 64;
    seg_cache = Itbl.create 256;
    peer_cache = Itbl.create 64;
    presence;
    peering_delay = Time.ms 2;
    peering_loss =
      Loss.bernoulli (Rng.split_named (Engine.rng engine) "peering") ~p:0.01;
    m_seg_fail =
      Strovl_obs.Metrics.counter "strovl_underlay_segment_failures_total";
    m_seg_repair =
      Strovl_obs.Metrics.counter "strovl_underlay_segment_repairs_total";
    m_lost = Strovl_obs.Metrics.counter "strovl_underlay_lost_total";
  }

(* A wire loss is a drop in flight: charge it to the sending site so the
   flight recorder shows where the packet vanished. *)
let note_lost t src =
  Strovl_obs.Metrics.Counter.incr t.m_lost;
  if Strovl_obs.Trace.armed () then
    Strovl_obs.Trace.emit ~node:src
      (Strovl_obs.Trace.Drop Strovl_obs.Trace.Wire_loss)

let set_segment_loss t si loss =
  if si < 0 || si >= nsegments t then invalid_arg "Underlay.set_segment_loss";
  t.seg_loss.(si) <- loss

let set_all_segment_loss t f =
  Array.iteri (fun si s -> t.seg_loss.(si) <- f si s) t.spec.Gen.segments

let bump_epoch t =
  t.epoch <- t.epoch + 1;
  Hashtbl.reset t.cache

let fail_segment t si =
  if si < 0 || si >= nsegments t then invalid_arg "Underlay.fail_segment";
  if t.seg_up.(si) then begin
    t.seg_up.(si) <- false;
    Strovl_obs.Metrics.Counter.incr t.m_seg_fail;
    ignore
      (Engine.schedule t.engine ~delay:t.convergence (fun () ->
           (* Convergence: routing stops using the segment — unless it was
              repaired in the meantime. *)
           if not t.seg_up.(si) then begin
             t.routing_up.(si) <- false;
             bump_epoch t
           end))
  end

let repair_segment t si =
  if si < 0 || si >= nsegments t then invalid_arg "Underlay.repair_segment";
  if not t.seg_up.(si) then begin
    t.seg_up.(si) <- true;
    Strovl_obs.Metrics.Counter.incr t.m_seg_repair;
    ignore
      (Engine.schedule t.engine ~delay:t.convergence (fun () ->
           if t.seg_up.(si) then begin
             t.routing_up.(si) <- true;
             bump_epoch t
           end))
  end

let segment_up t si = t.seg_up.(si)

let segments_between t a b =
  let acc = ref [] in
  Array.iteri
    (fun si s ->
      if (s.Gen.seg_a = a && s.Gen.seg_b = b) || (s.Gen.seg_a = b && s.Gen.seg_b = a)
      then acc := si :: !acc)
    t.spec.Gen.segments;
  List.rev !acc

let routes t ~isp ~src =
  match Hashtbl.find_opt t.cache (isp, src) with
  | Some (e, r) when e = t.epoch -> r
  | _ ->
    let g = t.isp_graph.(isp) in
    let seg_of l = t.isp_seg.(isp).(l) in
    let weight l = t.spec.Gen.segments.(seg_of l).Gen.seg_delay in
    let usable l = t.routing_up.(seg_of l) in
    let r = Dijkstra.run ~usable ~weight g src in
    Hashtbl.replace t.cache (isp, src) (t.epoch, r);
    r

let routed_path t ~isp ~src ~dst =
  if isp < 0 || isp >= t.spec.Gen.nisps then invalid_arg "Underlay: bad isp";
  let r = routes t ~isp ~src in
  match Dijkstra.path_to r dst with
  | None -> None
  | Some links -> Some (List.map (fun l -> t.isp_seg.(isp).(l)) links)

(* Cached flat-array form of [routed_path], revalidated by epoch. *)
let routed_segs_slow t key ~isp ~src ~dst =
  let segs =
    match routed_path t ~isp ~src ~dst with
    | None -> None
    | Some l -> Some (Array.of_list l)
  in
  Itbl.replace t.seg_cache key (t.epoch, segs);
  segs

let routed_segs t ~isp ~src ~dst =
  let ns = nsites t in
  let key = (((isp * ns) + src) * ns) + dst in
  match Itbl.find t.seg_cache key with
  | e, segs when e = t.epoch -> segs
  | _ -> routed_segs_slow t key ~isp ~src ~dst
  | exception Not_found -> routed_segs_slow t key ~isp ~src ~dst

(* Sum of segment delays; [min_int] when unreachable. *)
let path_delay_int t ~isp ~src ~dst =
  match routed_segs t ~isp ~src ~dst with
  | None -> min_int
  | Some segs ->
    let rec sum i acc =
      if i >= Array.length segs then acc
      else sum (i + 1) (acc + t.spec.Gen.segments.(segs.(i)).Gen.seg_delay)
    in
    sum 0 0

let path_delay t ~isp ~src ~dst =
  match path_delay_int t ~isp ~src ~dst with
  | d when d = min_int -> None
  | d -> Some d

(* Fate of a packet injected now: walk the routed path accumulating delay;
   the packet dies at the first segment that is actually down or whose loss
   process fires at the crossing instant. [min_int] means lost. Loss is
   sampled segment by segment in path order (the RNG stream is part of the
   simulation's determinism contract). *)
let rec walk_segs t segs i acc ~now =
  if i >= Array.length segs then acc
  else begin
    let si = segs.(i) in
    if t.seg_up.(si) && not (Loss.drops t.seg_loss.(si) ~now:(Time.add now acc))
    then
      walk_segs t segs (i + 1)
        (Time.add acc t.spec.Gen.segments.(si).Gen.seg_delay)
        ~now
    else min_int
  end

let transmit_latency t ~isp ~src ~dst =
  match routed_segs t ~isp ~src ~dst with
  | None -> min_int
  | Some segs -> walk_segs t segs 0 Time.zero ~now:(Engine.now t.engine)

(* --------------------------- off-net paths --------------------------- *)

let isp_present t ~isp site = t.presence.(isp).(site)

let peering_sites t ~isp_a ~isp_b =
  let acc = ref [] in
  for s = Array.length t.spec.Gen.sites - 1 downto 0 do
    if t.presence.(isp_a).(s) && t.presence.(isp_b).(s) then acc := s :: !acc
  done;
  !acc

(* The best peering site under the current routing views: [(peer, total)]
   with [peer = -1] when the ISPs share no usable path. Cached by epoch —
   the fold over peering sites is pure (no loss sampling), so caching it
   cannot perturb the RNG stream. *)
let best_peering_slow t key ~isp_src ~isp_dst ~src ~dst =
  let best =
    List.fold_left
      (fun ((_, bd) as best) s ->
        let d1 = path_delay_int t ~isp:isp_src ~src ~dst:s in
        let d2 = path_delay_int t ~isp:isp_dst ~src:s ~dst in
        if d1 = min_int || d2 = min_int then best
        else begin
          let total = Time.add (Time.add d1 d2) t.peering_delay in
          if bd >= 0 && bd <= total then best else (s, total)
        end)
      (-1, -1)
      (peering_sites t ~isp_a:isp_src ~isp_b:isp_dst)
  in
  let peer, total = best in
  Itbl.replace t.peer_cache key (t.epoch, peer, total);
  best

let best_peering_int t ~isp_src ~isp_dst ~src ~dst =
  let ns = nsites t in
  let key =
    ((((isp_src * t.spec.Gen.nisps) + isp_dst) * ns + src) * ns) + dst
  in
  match Itbl.find t.peer_cache key with
  | e, peer, total when e = t.epoch -> (peer, total)
  | _ -> best_peering_slow t key ~isp_src ~isp_dst ~src ~dst
  | exception Not_found -> best_peering_slow t key ~isp_src ~isp_dst ~src ~dst

let path_delay_pair t ~isp_src ~isp_dst ~src ~dst =
  if isp_src = isp_dst then path_delay t ~isp:isp_src ~src ~dst
  else begin
    match best_peering_int t ~isp_src ~isp_dst ~src ~dst with
    | -1, _ -> None
    | _, total -> Some total
  end

let transmit_latency_pair t ~isp_src ~isp_dst ~src ~dst =
  if isp_src = isp_dst then transmit_latency t ~isp:isp_src ~src ~dst
  else begin
    let peer, _ = best_peering_int t ~isp_src ~isp_dst ~src ~dst in
    if peer < 0 then min_int
    else begin
      match routed_segs t ~isp:isp_src ~src ~dst:peer with
      | None -> min_int
      | Some leg1 -> (
        match routed_segs t ~isp:isp_dst ~src:peer ~dst with
        | None -> min_int
        | Some leg2 ->
          let now = Engine.now t.engine in
          let acc = walk_segs t leg1 0 Time.zero ~now in
          if acc = min_int then min_int
          else if Loss.drops t.peering_loss ~now:(Time.add now acc) then
            min_int
          else walk_segs t leg2 0 (Time.add acc t.peering_delay) ~now)
    end
  end

let transmit_result_pair t ~isp_src ~isp_dst ~src ~dst =
  match transmit_latency_pair t ~isp_src ~isp_dst ~src ~dst with
  | d when d = min_int -> `Lost
  | d -> `Delivered d

let transmit_pair t ~isp_src ~isp_dst ~src ~dst ~deliver =
  match transmit_latency_pair t ~isp_src ~isp_dst ~src ~dst with
  | d when d = min_int -> note_lost t src
  | d -> ignore (Engine.schedule t.engine ~delay:d deliver)
