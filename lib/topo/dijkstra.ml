type result = {
  dist : int array;
  prev_link : int array;
  prev_node : int array;
}

let run ?(usable = fun _ -> true) ~weight g src =
  let n = Graph.n g in
  let dist = Array.make n max_int in
  let prev_link = Array.make n (-1) in
  let prev_node = Array.make n (-1) in
  let done_ = Array.make n false in
  let heap = Strovl_sim.Heap.create () in
  dist.(src) <- 0;
  (* The seq component breaks ties by link id of the relaxing edge, keeping
     the tree deterministic. *)
  Strovl_sim.Heap.push heap ~time:0 ~seq:0 src;
  let rec loop () =
    if not (Strovl_sim.Heap.is_empty heap) then begin
      let d = Strovl_sim.Heap.min_time heap in
      let u = Strovl_sim.Heap.pop_min heap in
      if (not done_.(u)) && d = dist.(u) then begin
        done_.(u) <- true;
        let relax (v, l) =
          if usable l && not done_.(v) then begin
            let w = weight l in
            if w < 0 then invalid_arg "Dijkstra: negative weight";
            if dist.(u) <> max_int then begin
              let nd = dist.(u) + w in
              if
                nd < dist.(v)
                || (nd = dist.(v) && prev_link.(v) > l)
              then begin
                dist.(v) <- nd;
                prev_link.(v) <- l;
                prev_node.(v) <- u;
                Strovl_sim.Heap.push heap ~time:nd ~seq:l v
              end
            end
          end
        in
        List.iter relax (Graph.neighbors g u)
      end;
      loop ()
    end
  in
  loop ();
  { dist; prev_link; prev_node }

let path_to r target =
  if r.dist.(target) = max_int then None
  else begin
    let rec build acc v =
      if r.prev_link.(v) = -1 then acc
      else build (r.prev_link.(v) :: acc) (r.prev_node.(v))
    in
    Some (build [] target)
  end

let node_path_to r target =
  if r.dist.(target) = max_int then None
  else begin
    let rec build acc v =
      if r.prev_node.(v) = -1 then v :: acc else build (v :: acc) r.prev_node.(v)
    in
    Some (build [] target)
  end

let next_hops g r =
  let n = Graph.n g in
  let table = Array.make n None in
  for v = 0 to n - 1 do
    if r.dist.(v) <> max_int && r.prev_node.(v) <> -1 then begin
      (* Walk back from v until the predecessor is the source (the source is
         the unique node with prev_node = -1 on a reachable path). *)
      let rec walk v =
        if r.prev_node.(r.prev_node.(v)) = -1 then (v, r.prev_link.(v))
        else walk r.prev_node.(v)
      in
      table.(v) <- Some (walk v)
    end
  done;
  table

let distance ?usable ~weight g src dst =
  let r = run ?usable ~weight g src in
  if r.dist.(dst) = max_int then None else Some r.dist.(dst)

let eccentricity ~weight g src =
  let r = run ~weight g src in
  Array.fold_left
    (fun acc d -> if d = max_int then max_int else max acc d)
    0 r.dist

let diameter ~weight g =
  let acc = ref 0 in
  for v = 0 to Graph.n g - 1 do
    acc := max !acc (eccentricity ~weight g v)
  done;
  !acc
