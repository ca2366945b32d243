type labels = (string * string) list

(* All registry state is domain-local: each domain (and therefore each
   parallel run executing on it) owns an independent registry, so N
   simulations on N domains never contend on — or leak counts into — each
   other's metrics. Handles embed their owning domain's [enabled] ref, so
   the hot-path update cost stays one dereference and a branch, exactly as
   with the old process-global flag. *)

module Counter = struct
  type t = { mutable v : int; on : bool ref }

  let incr c = if !(c.on) then c.v <- c.v + 1
  let add c k = if !(c.on) then c.v <- c.v + k
  let value c = c.v
end

module Histogram = struct
  (* Log2 buckets: bucket i holds samples in [2^(i-1), 2^i), bucket 0 holds
     {0}. 63 buckets cover the whole non-negative int range in O(1) memory
     per histogram regardless of soak length. *)
  let nbuckets = 63

  type t = {
    counts : int array;
    mutable n : int;
    mutable total : int;
    mutable vmin : int;
    mutable vmax : int;
    on : bool ref;
  }

  let bucket_of v =
    if v <= 0 then 0
    else begin
      let i = ref 0 and v = ref v in
      while !v > 0 do
        incr i;
        v := !v lsr 1
      done;
      Int.min !i (nbuckets - 1)
    end

  let observe h v =
    if !(h.on) then begin
      let v = Int.max 0 v in
      let b = bucket_of v in
      h.counts.(b) <- h.counts.(b) + 1;
      h.n <- h.n + 1;
      h.total <- h.total + v;
      if h.n = 1 || v < h.vmin then h.vmin <- v;
      if v > h.vmax then h.vmax <- v
    end

  let count h = h.n
  let sum h = h.total
  let min h = if h.n = 0 then 0 else h.vmin
  let max h = h.vmax

  (* Geometric midpoint of bucket i's range as the representative value. *)
  let bucket_mid i =
    if i = 0 then 0.
    else begin
      let lo = float_of_int (1 lsl (i - 1)) in
      lo *. 1.5
    end

  let quantile h q =
    if h.n = 0 then 0.
    else begin
      let target = Stdlib.max 1 (int_of_float (ceil (q *. float_of_int h.n))) in
      let acc = ref 0 and i = ref 0 and found = ref (-1) in
      while !found < 0 && !i < nbuckets do
        acc := !acc + h.counts.(!i);
        if !acc >= target then found := !i;
        incr i
      done;
      if !found < 0 then float_of_int h.vmax else bucket_mid !found
    end

  let buckets h =
    let acc = ref [] in
    for i = nbuckets - 1 downto 0 do
      if h.counts.(i) > 0 then acc := (1 lsl i, h.counts.(i)) :: !acc
    done;
    !acc

  let clear h =
    Array.fill h.counts 0 nbuckets 0;
    h.n <- 0;
    h.total <- 0;
    h.vmin <- 0;
    h.vmax <- 0
end

type item =
  | C of Counter.t
  | H of Histogram.t

type state = {
  st_on : bool ref;
  st_registry : (string * labels, item) Hashtbl.t;
}

let dls : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { st_on = ref true; st_registry = Hashtbl.create 64 })

let state () = Domain.DLS.get dls

let set_enabled v = (state ()).st_on := v

let normalize labels = List.sort compare labels

let get_or_create ~kind ~make name labels =
  let st = state () in
  let key = (name, normalize labels) in
  match Hashtbl.find_opt st.st_registry key with
  | Some item ->
    if not (kind item) then
      invalid_arg ("Metrics: " ^ name ^ " already registered with another kind");
    item
  | None ->
    (* Same name must keep one kind across label sets, so dumps stay
       coherent. *)
    Hashtbl.iter
      (fun (n, _) item ->
        if n = name && kind item = false then
          invalid_arg ("Metrics: " ^ name ^ " already registered with another kind"))
      st.st_registry;
    let item = make st.st_on in
    Hashtbl.replace st.st_registry key item;
    item

let counter ?(labels = []) name =
  match
    get_or_create name labels
      ~kind:(function C _ -> true | _ -> false)
      ~make:(fun on -> C { Counter.v = 0; on })
  with
  | C c -> c
  | _ -> assert false

let histogram ?(labels = []) name =
  match
    get_or_create name labels
      ~kind:(function H _ -> true | _ -> false)
      ~make:(fun on ->
        H
          {
            Histogram.counts = Array.make Histogram.nbuckets 0;
            n = 0;
            total = 0;
            vmin = 0;
            vmax = 0;
            on;
          })
  with
  | H h -> h
  | _ -> assert false

type value =
  | Counter_v of int
  | Histogram_v of { count : int; sum : int; p50 : float; p99 : float; max : int }

let dump () =
  let rows =
    Hashtbl.fold
      (fun (name, labels) item acc ->
        let v =
          match item with
          | C c -> Counter_v c.Counter.v
          | H h ->
            Histogram_v
              {
                count = Histogram.count h;
                sum = Histogram.sum h;
                p50 = Histogram.quantile h 0.5;
                p99 = Histogram.quantile h 0.99;
                max = Histogram.max h;
              }
        in
        (name, labels, v) :: acc)
      (state ()).st_registry []
  in
  List.sort (fun (n1, l1, _) (n2, l2, _) -> compare (n1, l1) (n2, l2)) rows

let find_counter ?(labels = []) name =
  match Hashtbl.find_opt (state ()).st_registry (name, normalize labels) with
  | Some (C c) -> c.Counter.v
  | _ -> 0

let reset () =
  Hashtbl.iter
    (fun _ item ->
      match item with
      | C c -> c.Counter.v <- 0
      | H h -> Histogram.clear h)
    (state ()).st_registry

let purge () =
  let st = state () in
  Hashtbl.reset st.st_registry;
  st.st_on := true
