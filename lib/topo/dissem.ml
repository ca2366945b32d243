type scheme =
  | Single_path
  | Two_disjoint
  | K_disjoint of int
  | Source_problem
  | Dest_problem
  | Robust_both
  | Flooding

let scheme_name = function
  | Single_path -> "single-path"
  | Two_disjoint -> "2-disjoint"
  | K_disjoint k -> Printf.sprintf "%d-disjoint" k
  | Source_problem -> "src-problem"
  | Dest_problem -> "dst-problem"
  | Robust_both -> "robust-both"
  | Flooding -> "flooding"

let mask_of_paths ~nlinks paths =
  Bitmask.of_links ~nlinks (List.concat paths)

let disjoint_mask ?usable ~weight ~k g ~src ~dst =
  let paths = Disjoint.paths ?usable ~weight ~k g src dst in
  mask_of_paths ~nlinks:(Graph.link_count g) paths

(* Targeted redundancy around [node]: besides the 2-disjoint core, include
   the link from [node] to each of its neighbors, and each such neighbor's
   min-latency path joining the core (approximated as its shortest path to
   [toward], which necessarily merges with the graph). This captures the
   dissemination-graphs insight that loss concentrated around the source
   (resp. destination) is best countered by fanning out wide at that end
   only. *)
let problem_mask ?(usable = fun _ -> true) ~weight g ~src ~dst ~node ~toward =
  let nlinks = Graph.link_count g in
  let core = Disjoint.paths ~usable ~weight ~k:2 g src dst in
  let mask = mask_of_paths ~nlinks core in
  let r = Dijkstra.run ~usable ~weight g toward in
  List.iter
    (fun (nbr, l) ->
      if usable l then begin
        Bitmask.set mask l;
        match Dijkstra.path_to r nbr with
        | None -> ()
        | Some p ->
          (* path_to gives toward->nbr links; direction is irrelevant for an
             undirected link set. *)
          List.iter (Bitmask.set mask) p
      end)
    (Graph.neighbors g node);
  mask

let build ?(usable = fun _ -> true) ~weight g ~src ~dst scheme =
  if src = dst then invalid_arg "Dissem.build: src = dst";
  let nlinks = Graph.link_count g in
  match scheme with
  | Single_path ->
    let r = Dijkstra.run ~usable ~weight g src in
    (match Dijkstra.path_to r dst with
    | None -> Bitmask.create ~nlinks
    | Some p -> Bitmask.of_links ~nlinks p)
  | Two_disjoint -> disjoint_mask ~usable ~weight ~k:2 g ~src ~dst
  | K_disjoint k -> disjoint_mask ~usable ~weight ~k g ~src ~dst
  | Source_problem -> problem_mask ~usable ~weight g ~src ~dst ~node:src ~toward:dst
  | Dest_problem -> problem_mask ~usable ~weight g ~src ~dst ~node:dst ~toward:src
  | Robust_both ->
    Bitmask.union
      (problem_mask ~usable ~weight g ~src ~dst ~node:src ~toward:dst)
      (problem_mask ~usable ~weight g ~src ~dst ~node:dst ~toward:src)
  | Flooding ->
    let mask = Bitmask.create ~nlinks in
    Graph.iter_links g (fun l _ _ -> if usable l then Bitmask.set mask l);
    mask

let cost = Bitmask.count

let connects ?(down = fun _ -> false) g mask ~src ~dst =
  let usable l = Bitmask.mem mask l && not (down l) in
  let seen = Graph.reachable ~usable g src in
  seen.(dst)
