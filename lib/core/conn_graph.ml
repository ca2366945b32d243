module Graph = Strovl_topo.Graph

type side = { mutable up : bool; mutable metric : int; mutable loss : int }

type t = {
  self : int;
  g : Graph.t;
  (* Per link: the state advertised by each endpoint (side 0 = the endpoint
     listed first by Graph.endpoints). *)
  sides : side array array;
  seqs : int array; (* highest LSU seq per origin *)
  mutable my_seq : int;
  mutable version : int;
  (* Moves with [version] and also on the insignificant metric and loss
     changes that [version] skips but [weight] reads. *)
  mutable stamp : int;
  mutable effective : bool; (* weight = loss-inflated metric *)
  (* Domain-local metric handles, bound at [create] time (Strovl_obs.Ctx). *)
  m_link_changes : Strovl_obs.Metrics.Counter.t;
  m_lsu_applied : Strovl_obs.Metrics.Counter.t;
}

let side_index g link node =
  let a, b = Graph.endpoints g link in
  if node = a then 0
  else if node = b then 1
  else invalid_arg "Conn_graph: node not an endpoint of link"

let create ~self g ~metric =
  {
    self;
    g;
    sides =
      Array.init (Graph.link_count g) (fun l ->
          [|
            { up = true; metric = metric l; loss = 0 };
            { up = true; metric = metric l; loss = 0 };
          |]);
    seqs = Array.make (Graph.n g) (-1);
    my_seq = 0;
    version = 0;
    stamp = 0;
    effective = false;
    m_link_changes =
      Strovl_obs.Metrics.counter "strovl_link_state_changes_total";
    m_lsu_applied = Strovl_obs.Metrics.counter "strovl_lsu_applied_total";
  }

let self t = t.self
let graph t = t.g
let version t = t.version
let stamp t = t.stamp

let bump t =
  t.version <- t.version + 1;
  t.stamp <- t.stamp + 1

let usable t l = t.sides.(l).(0).up && t.sides.(l).(1).up
let metric t l = max t.sides.(l).(0).metric t.sides.(l).(1).metric
let loss t l = max t.sides.(l).(0).loss t.sides.(l).(1).loss

let effective_metric t l =
  let p = loss t l in
  if p >= 800 then max_int / 4
  else begin
    let keep = 1000 - p in
    (* metric / (1-p)^2, in integer permille arithmetic *)
    metric t l * 1000 / keep * 1000 / keep
  end

let use_effective_metric t b =
  if t.effective <> b then begin
    t.effective <- b;
    bump t
  end

let weight t l = if t.effective then effective_metric t l else metric t l

let local_view t l = t.sides.(l).(side_index t.g l t.self).up

let my_links_info t =
  List.map
    (fun l ->
      let s = t.sides.(l).(side_index t.g l t.self) in
      (l, { Msg.li_up = s.up; li_metric = s.metric; li_loss = s.loss }))
    (Graph.incident t.g t.self)

let make_lsu t =
  t.my_seq <- t.my_seq + 1;
  Msg.Lsu { origin = t.self; lsu_seq = t.my_seq; links = my_links_info t; auth = None }

let set_local t ~link ~up =
  let s = t.sides.(link).(side_index t.g link t.self) in
  if s.up = up then None
  else begin
    s.up <- up;
    bump t;
    Strovl_obs.Metrics.Counter.incr t.m_link_changes;
    if Strovl_obs.Trace.armed () then
      Strovl_obs.Trace.emit ~node:t.self (Strovl_obs.Trace.Reroute (link, up));
    Some (make_lsu t)
  end

let set_local_metric t ~link ~metric =
  let s = t.sides.(link).(side_index t.g link t.self) in
  let significant =
    let old = float_of_int s.metric and nw = float_of_int metric in
    Float.abs (nw -. old) > 0.1 *. Float.max old 1.
  in
  if not significant then begin
    if s.metric <> metric then t.stamp <- t.stamp + 1;
    s.metric <- metric;
    None
  end
  else begin
    s.metric <- metric;
    bump t;
    Some (make_lsu t)
  end

let set_local_loss t ~link ~loss =
  let loss = max 0 (min 1000 loss) in
  let s = t.sides.(link).(side_index t.g link t.self) in
  let significant = abs (loss - s.loss) > 20 in
  if not significant then begin
    if s.loss <> loss then t.stamp <- t.stamp + 1;
    s.loss <- loss;
    None
  end
  else begin
    s.loss <- loss;
    bump t;
    Some (make_lsu t)
  end

let refresh_lsu t = make_lsu t

let apply_lsu t ~origin ~lsu_seq links =
  if origin < 0 || origin >= Graph.n t.g then false
  else if origin = t.self then false (* our own flood echoed back *)
  else if lsu_seq <= t.seqs.(origin) then false
  else begin
    t.seqs.(origin) <- lsu_seq;
    let changed = ref false in
    List.iter
      (fun (l, info) ->
        if l >= 0 && l < Graph.link_count t.g then begin
          let a, b = Graph.endpoints t.g l in
          (* Accept only claims about the origin's own incident links: a
             compromised node cannot take down a remote link by lying. *)
          if a = origin || b = origin then begin
            let s = t.sides.(l).(side_index t.g l origin) in
            if
              s.up <> info.Msg.li_up
              || s.metric <> info.Msg.li_metric
              || s.loss <> info.Msg.li_loss
            then begin
              s.up <- info.Msg.li_up;
              s.metric <- info.Msg.li_metric;
              s.loss <- info.Msg.li_loss;
              changed := true
            end
          end
        end)
      links;
    if !changed then begin
      bump t;
      Strovl_obs.Metrics.Counter.incr t.m_lsu_applied
    end;
    (* A fresher LSU was accepted (seq advanced), whether or not any side
       changed: the auditor uses this to bound reroute propagation. *)
    if Strovl_obs.Trace.armed () then
      Strovl_obs.Trace.emit ~node:t.self (Strovl_obs.Trace.Lsu_apply origin);
    true
  end

let highest_seq t origin = t.seqs.(origin)
