type t = {
  source : Graph.node;
  links : Graph.link list;
  members : Graph.node list;
  out_links : Graph.link list array;
}

let shortest_path_tree ?usable ~weight g ~source ~members =
  let r = Dijkstra.run ?usable ~weight g source in
  let in_tree = Array.make (Graph.n g) false in
  let tree_links = ref [] in
  in_tree.(source) <- true;
  let reached = ref [] in
  let add_path m =
    if r.Dijkstra.dist.(m) <> max_int then begin
      reached := m :: !reached;
      (* Walk from the member toward the source, grafting links until we hit
         a node already in the tree. *)
      let rec graft v acc =
        if in_tree.(v) then acc
        else begin
          in_tree.(v) <- true;
          graft r.Dijkstra.prev_node.(v) (r.Dijkstra.prev_link.(v) :: acc)
        end
      in
      let new_links = graft m [] in
      tree_links := !tree_links @ new_links
    end
  in
  List.iter add_path (List.sort_uniq compare members);
  let out_links = Array.make (Graph.n g) [] in
  List.iter
    (fun l ->
      (* Orient each tree link from the endpoint closer to the source. *)
      let u, v = Graph.endpoints g l in
      let parent = if r.Dijkstra.dist.(u) <= r.Dijkstra.dist.(v) then u else v in
      out_links.(parent) <- out_links.(parent) @ [ l ])
    !tree_links;
  { source; links = !tree_links; members = List.rev !reached; out_links }

let covers t v = List.mem v t.members || v = t.source
let link_cost t = List.length t.links

let unicast_link_cost ?usable ~weight g ~source ~members =
  let r = Dijkstra.run ?usable ~weight g source in
  List.fold_left
    (fun acc m ->
      match Dijkstra.path_to r m with
      | None -> acc
      | Some p -> acc + List.length p)
    0
    (List.sort_uniq compare members)
