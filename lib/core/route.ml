module Graph = Strovl_topo.Graph
module Dijkstra = Strovl_topo.Dijkstra
module Mcast = Strovl_topo.Mcast
module Bitmask = Strovl_topo.Bitmask
module Dissem = Strovl_topo.Dissem

type tables = {
  spt : Dijkstra.result; (* rooted at self *)
  hops : (int * int) option array;
}

type t = {
  conn : Conn_graph.t;
  group : Group.t;
  mutable cache_version : int;
  mutable tables : tables option;
  mutable mcast_cache : (int * int, Mcast.t) Hashtbl.t;
  mutable mcast_version : int;
  (* Last (source, group) tree, so the steady state — one mcast flow hitting
     the same tree packet after packet — skips the hashtable entirely. *)
  mutable mc_src : int;
  mutable mc_grp : int;
  mutable mc_tree : Mcast.t option;
  (* Source-routing masks, valid while [Conn_graph.stamp] is [masks_stamp]:
     the usable links, and the dissemination masks by destination and
     scheme. *)
  mutable masks_stamp : int;
  mutable usable_links : Bitmask.t option;
  dissem : (Dissem.scheme * Bitmask.t) list array;
}

let create conn group =
  {
    conn;
    group;
    cache_version = -1;
    tables = None;
    mcast_cache = Hashtbl.create 16;
    mcast_version = -1;
    mc_src = -1;
    mc_grp = -1;
    mc_tree = None;
    masks_stamp = -1;
    usable_links = None;
    dissem = Array.make (Graph.n (Conn_graph.graph conn)) [];
  }

let usable t l = Conn_graph.usable t.conn l
let weight t l = Conn_graph.weight t.conn l

let tables t =
  let v = Conn_graph.version t.conn in
  match t.tables with
  | Some tb when t.cache_version = v -> tb
  | _ ->
    let g = Conn_graph.graph t.conn in
    let spt =
      Dijkstra.run ~usable:(usable t) ~weight:(weight t) g (Conn_graph.self t.conn)
    in
    let hops = Dijkstra.next_hops g spt in
    let tb = { spt; hops } in
    t.tables <- Some tb;
    t.cache_version <- v;
    tb

let next_hop t ~dst =
  if dst = Conn_graph.self t.conn then None else (tables t).hops.(dst)

let distance t ~dst =
  let d = (tables t).spt.Dijkstra.dist.(dst) in
  if d = max_int then None else Some d

let path t ~dst = Dijkstra.path_to (tables t).spt dst

let reachable t ~dst = distance t ~dst <> None

let mcast_tree t ~source ~group =
  let v = Conn_graph.version t.conn + (1000000 * Group.version t.group) in
  if t.mcast_version <> v then begin
    Hashtbl.reset t.mcast_cache;
    t.mcast_version <- v;
    t.mc_tree <- None
  end;
  match t.mc_tree with
  | Some tree when t.mc_src = source && t.mc_grp = group -> tree
  | _ ->
    let tree =
      match Hashtbl.find_opt t.mcast_cache (source, group) with
      | Some tree -> tree
      | None ->
        let g = Conn_graph.graph t.conn in
        let members = Group.member_nodes t.group ~group in
        let tree =
          Mcast.shortest_path_tree ~usable:(usable t) ~weight:(weight t) g
            ~source ~members
        in
        Hashtbl.replace t.mcast_cache (source, group) tree;
        tree
    in
    t.mc_src <- source;
    t.mc_grp <- group;
    t.mc_tree <- Some tree;
    tree

let mcast_out_links t ~source ~group =
  let tree = mcast_tree t ~source ~group in
  tree.Mcast.out_links.(Conn_graph.self t.conn)

let mcast_tree_links t ~source ~group = (mcast_tree t ~source ~group).Mcast.links

let anycast_target t ~group =
  let members = Group.member_nodes t.group ~group in
  let self = Conn_graph.self t.conn in
  if List.mem self members then Some self
  else begin
    let dist = (tables t).spt.Dijkstra.dist in
    let best =
      List.fold_left
        (fun acc m ->
          if dist.(m) = max_int then acc
          else begin
            match acc with
            | Some (_, d) when d <= dist.(m) -> acc
            | _ -> Some (m, dist.(m))
          end)
        None members
    in
    Option.map fst best
  end

let current_masks t =
  let stamp = Conn_graph.stamp t.conn in
  if t.masks_stamp <> stamp then begin
    t.masks_stamp <- stamp;
    t.usable_links <- None;
    Array.fill t.dissem 0 (Array.length t.dissem) []
  end

let usable_mask t =
  current_masks t;
  match t.usable_links with
  | Some mask -> mask
  | None ->
    let g = Conn_graph.graph t.conn in
    let mask = Bitmask.create ~nlinks:(Graph.link_count g) in
    Graph.iter_links g (fun l _ _ -> if usable t l then Bitmask.set mask l);
    t.usable_links <- Some mask;
    mask

let dissem_mask t ~dst scheme =
  current_masks t;
  match List.assoc scheme t.dissem.(dst) with
  | mask -> mask
  | exception Not_found ->
    let g = Conn_graph.graph t.conn in
    let mask =
      Dissem.build ~usable:(usable t) ~weight:(weight t) g
        ~src:(Conn_graph.self t.conn) ~dst scheme
    in
    t.dissem.(dst) <- (scheme, mask) :: t.dissem.(dst);
    mask
