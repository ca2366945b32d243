module IntSet = Set.Make (Int)
module IntMap = Map.Make (Int)

type t = {
  self : int;
  nnodes : int;
  mutable members : IntSet.t IntMap.t; (* group -> overlay nodes with members *)
  mutable local : IntSet.t IntMap.t; (* group -> local client ports *)
  seqs : int array; (* highest update seq per origin *)
  mutable my_seq : int;
  mutable version : int;
}

let create ~self ~nnodes =
  {
    self;
    nnodes;
    members = IntMap.empty;
    local = IntMap.empty;
    seqs = Array.make nnodes (-1);
    my_seq = 0;
    version = 0;
  }

let version t = t.version

let node_set t group =
  match IntMap.find_opt group t.members with
  | Some s -> s
  | None -> IntSet.empty

let local_set t group =
  match IntMap.find_opt group t.local with Some s -> s | None -> IntSet.empty

let my_membership t =
  (* (group, member?) entries describing this node's current local state;
     we advertise all groups we are in. *)
  IntMap.fold (fun g ports acc -> if IntSet.is_empty ports then acc else (g, true) :: acc) t.local []

let make_update t changed_group member =
  t.my_seq <- t.my_seq + 1;
  let memb = (changed_group, member) :: List.remove_assoc changed_group (my_membership t) in
  Msg.Group_update { origin = t.self; gseq = t.my_seq; memb; auth = None }

let join_local t ~group ~port =
  let ports = local_set t group in
  let was_member = not (IntSet.is_empty ports) in
  t.local <- IntMap.add group (IntSet.add port ports) t.local;
  if was_member then None
  else begin
    t.members <- IntMap.add group (IntSet.add t.self (node_set t group)) t.members;
    t.version <- t.version + 1;
    Some (make_update t group true)
  end

let leave_local t ~group ~port =
  let ports = IntSet.remove port (local_set t group) in
  t.local <- IntMap.add group ports t.local;
  if not (IntSet.is_empty ports) then None
  else if IntSet.mem t.self (node_set t group) then begin
    t.members <- IntMap.add group (IntSet.remove t.self (node_set t group)) t.members;
    t.version <- t.version + 1;
    Some (make_update t group false)
  end
  else None

let member_nodes t ~group = IntSet.elements (node_set t group)
let has_local t ~group = not (IntSet.is_empty (local_set t group))
let local_ports t ~group = IntSet.elements (local_set t group)

let apply_update t ~origin ~gseq memb =
  if origin < 0 || origin >= t.nnodes || origin = t.self then false
  else if gseq <= t.seqs.(origin) then false
  else begin
    t.seqs.(origin) <- gseq;
    let changed = ref false in
    let update g m =
      let s = node_set t g in
      let s' = if m then IntSet.add origin s else IntSet.remove origin s in
      if not (IntSet.equal s s') then begin
        t.members <- IntMap.add g s' t.members;
        changed := true
      end
    in
    List.iter (fun (g, m) -> update g m) memb;
    (* The update is a complete membership snapshot for [origin]: any group
       we believed it was in but that is absent from the snapshot is stale
       (protects against earlier lost floods). *)
    IntMap.iter
      (fun g s ->
        if IntSet.mem origin s && not (List.mem_assoc g memb) then update g false)
      t.members;
    if !changed then t.version <- t.version + 1;
    true
  end

let groups t =
  IntMap.fold
    (fun g s acc -> if IntSet.is_empty s then acc else g :: acc)
    t.members []
  |> List.rev
