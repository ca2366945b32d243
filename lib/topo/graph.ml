type node = int
type link = int

type t = {
  n : int;
  mutable ends : (node * node) array; (* indexed by link id *)
  mutable nlinks : int;
  adj : (node * link) list array; (* per node, reversed insertion order *)
}

let create ~n =
  if n <= 0 then invalid_arg "Graph.create: n must be positive";
  { n; ends = [||]; nlinks = 0; adj = Array.make n [] }

let n g = g.n
let link_count g = g.nlinks

let check_node g u =
  if u < 0 || u >= g.n then invalid_arg "Graph: node out of range"

let add_link g u v =
  check_node g u;
  check_node g v;
  if u = v then invalid_arg "Graph.add_link: self-loop";
  let id = g.nlinks in
  let cap = Array.length g.ends in
  if id = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let narr = Array.make ncap (0, 0) in
    Array.blit g.ends 0 narr 0 g.nlinks;
    g.ends <- narr
  end;
  g.ends.(id) <- (u, v);
  g.nlinks <- g.nlinks + 1;
  g.adj.(u) <- (v, id) :: g.adj.(u);
  g.adj.(v) <- (u, id) :: g.adj.(v);
  id

let check_link g l =
  if l < 0 || l >= g.nlinks then invalid_arg "Graph: link out of range"

let endpoints g l =
  check_link g l;
  g.ends.(l)

let other_end g l u =
  let a, b = endpoints g l in
  if u = a then b
  else if u = b then a
  else invalid_arg "Graph.other_end: node not an endpoint"

let neighbors g u =
  check_node g u;
  List.rev g.adj.(u)

let incident g u = List.map snd (neighbors g u)
let degree g u = List.length g.adj.(u)

let find_link g u v =
  check_node g u;
  check_node g v;
  let rec search best = function
    | [] -> best
    | (w, l) :: rest ->
      let best =
        if w = v then match best with Some b when b < l -> best | _ -> Some l
        else best
      in
      search best rest
  in
  search None g.adj.(u)

let iter_links g f =
  for l = 0 to g.nlinks - 1 do
    let u, v = g.ends.(l) in
    f l u v
  done

let reachable ?(usable = fun _ -> true) g src =
  check_node g src;
  let seen = Array.make g.n false in
  let queue = Queue.create () in
  seen.(src) <- true;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun (v, l) ->
        if usable l && not seen.(v) then begin
          seen.(v) <- true;
          Queue.add v queue
        end)
      g.adj.(u)
  done;
  seen

let connected ?usable g =
  let seen = reachable ?usable g 0 in
  Array.for_all (fun b -> b) seen
