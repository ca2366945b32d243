type t = {
  fd : Unix.file_descr;
  gro : bool;  (** the kernel took UDP_GRO at bind *)
  mutable closed : bool;
  info : int array;
      (** the last receive's segment size, MSG_TRUNC flag, source address
          and source port, as {!recv} fills them *)
  mutable src_ip : int;
  mutable src_port : int;
  mutable src : Unix.sockaddr;
      (** the last receive's source, rebuilt only when it changes *)
  mutable pending : (string * Unix.sockaddr) list;
      (** segments of a coalesced receive that {!recvfrom} has not yet
          returned, in order *)
  mutable rx_batches : int;
  mutable truncated : int;
  mutable qbuf : Bytes.t;
      (** the queued datagrams back to back, in queue order; sized lazily *)
  mutable qbytes : int;
  mutable qn : int;
  mutable qaddr : Unix.sockaddr array;
      (** destination of each queued datagram *)
  mutable qlen : int array;  (** length of each queued datagram *)
  mutable runs : int array;  (** the plan of the flush in progress *)
  mutable segment : bool;  (** false once the kernel refused UDP_SEGMENT *)
}

(* At least the largest UDP payload, and so the largest coalesced
   receive: a smaller buffer would have the kernel cut a long run short. *)
let max_datagram = 65535

let max_queue = 128
let max_queue_bytes = 1 lsl 18
let max_segments = 64
let max_run_bytes = 65507

external set_gro : Unix.file_descr -> bool = "strovl_udp_set_gro"

let no_addr = Unix.ADDR_UNIX ""

let bind ~host ~port =
  (* No SO_REUSEADDR: UDP has no TIME_WAIT to work around, and on Linux the
     option would let a second socket bind a port a live daemon holds and
     split its datagrams. *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.set_nonblock fd;
  let inet =
    if host = "" then Unix.inet_addr_any else Unix.inet_addr_of_string host
  in
  (try Unix.bind fd (Unix.ADDR_INET (inet, port))
   with e ->
     Unix.close fd;
     raise e);
  {
    fd;
    gro = set_gro fd;
    closed = false;
    info = Array.make 4 0;
    src_ip = -1;
    src_port = -1;
    src = no_addr;
    pending = [];
    rx_batches = 0;
    truncated = 0;
    qbuf = Bytes.empty;
    qbytes = 0;
    qn = 0;
    qaddr = Array.make max_queue no_addr;
    qlen = Array.make max_queue 0;
    runs = Array.make (3 * max_queue) 0;
    segment = true;
  }

let fd t = t.fd
let gro t = t.gro
let rx_batches t = t.rx_batches
let truncated t = t.truncated

let port t =
  match Unix.getsockname t.fd with
  | Unix.ADDR_INET (_, p) -> p
  | _ -> assert false

let sendto t addr data =
  match Unix.sendto_substring t.fd data 0 (String.length data) [] addr with
  | _ -> true
  | exception
      Unix.Unix_error
        ( ( Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.ECONNREFUSED
          | Unix.ENOBUFS ),
          _,
          _ ) ->
    false

(* ----------------------------- send queue ----------------------------- *)

let same_addr a b = a == b || a = b

let plan ~segment addr len n runs =
  let nruns = ref 0 and i = ref 0 in
  while !i < n do
    let a = addr.(!i) and size = len.(!i) in
    let segs = ref 1 in
    if segment && size > 0 && size <= Strovl.Wire.max_frame then
      while
        !i + !segs < n
        && !segs < max_segments
        && (!segs + 1) * size <= max_run_bytes
        && len.(!i + !segs) = size
        && same_addr addr.(!i + !segs) a
      do
        incr segs
      done;
    let r = 3 * !nruns in
    runs.(r) <- !i;
    runs.(r + 1) <- size;
    runs.(r + 2) <- !segs;
    incr nruns;
    i := !i + !segs
  done;
  !nruns

external sendmmsg :
  Unix.file_descr -> Bytes.t -> Unix.sockaddr array -> int array -> int -> int
  = "strovl_udp_sendmmsg"

let flush t =
  if t.qn = 0 then 0
  else begin
    let nruns = plan ~segment:t.segment t.qaddr t.qlen t.qn t.runs in
    (* Emptied first: a raise below must not leave the queue to be sent
       again. *)
    t.qn <- 0;
    t.qbytes <- 0;
    let r = sendmmsg t.fd t.qbuf t.qaddr t.runs nruns in
    if r land 1 = 1 then t.segment <- false;
    r lsr 1
  end

let queue t addr buf len =
  if t.closed then 0
  else begin
    let calls =
      if t.qn = max_queue || t.qbytes + len > max_queue_bytes then flush t
      else 0
    in
    let need = t.qbytes + len in
    if need > Bytes.length t.qbuf then begin
      let nb =
        Bytes.create
          (max need (min max_queue_bytes (max 4096 (2 * Bytes.length t.qbuf))))
      in
      Bytes.blit t.qbuf 0 nb 0 t.qbytes;
      t.qbuf <- nb
    end;
    Bytes.blit buf 0 t.qbuf t.qbytes len;
    t.qaddr.(t.qn) <- addr;
    t.qlen.(t.qn) <- len;
    t.qn <- t.qn + 1;
    t.qbytes <- need;
    calls
  end

(* ------------------------------- receive ------------------------------- *)

external recv : Unix.file_descr -> Bytes.t -> int array -> int
  = "strovl_udp_recvmsg"

(* The domain's one receive buffer; [busy] while a drain still has
   segments of it to hand on. *)
type rx = { rbuf : Bytes.t; mutable busy : bool }

let rx_key =
  Domain.DLS.new_key (fun () ->
      { rbuf = Bytes.create max_datagram; busy = false })

let split buf n ~gso_size ~truncated from ~f =
  if truncated then ()
  else if gso_size <= 0 || gso_size >= n then f (Bytes.sub_string buf 0 n) from
  else begin
    let off = ref 0 in
    while !off < n do
      let len = min gso_size (n - !off) in
      f (Bytes.sub_string buf !off len) from;
      off := !off + len
    done
  end

let inet_of_int ip =
  Unix.inet_addr_of_string
    (Printf.sprintf "%d.%d.%d.%d" (ip lsr 24) ((ip lsr 16) land 0xff)
       ((ip lsr 8) land 0xff) (ip land 0xff))

let new_source t ip port =
  let inet =
    match t.src with
    | Unix.ADDR_INET (inet, _) when ip = t.src_ip -> inet
    | _ -> inet_of_int ip
  in
  t.src_ip <- ip;
  t.src_port <- port;
  t.src <- Unix.ADDR_INET (inet, port);
  t.src

(* Inlined, so a receive from the previous source costs two compares and
   no call. *)
let[@inline] source t =
  let ip = t.info.(2) and port = t.info.(3) in
  if ip = t.src_ip && port = t.src_port then t.src else new_source t ip port

(* One receive into [buf]: its byte count, or -1 when nothing is ready. *)
let[@inline] receive t buf =
  let n = recv t.fd buf t.info in
  if n >= 0 then begin
    t.rx_batches <- t.rx_batches + 1;
    if t.info.(1) <> 0 then t.truncated <- t.truncated + 1
  end;
  n

let rec recvfrom t =
  match t.pending with
  | d :: rest ->
    t.pending <- rest;
    Some d
  | [] ->
    if t.closed then None
    else
      let rx = Domain.DLS.get rx_key in
      let buf = if rx.busy then Bytes.create max_datagram else rx.rbuf in
      let n = receive t buf in
      if n < 0 then None
      else
        let gso_size = t.info.(0) and truncated = t.info.(1) <> 0 in
        let from = source t in
        if (not truncated) && (gso_size <= 0 || gso_size >= n) then
          Some (Bytes.sub_string buf 0 n, from)
        else begin
          let segs = ref [] in
          split buf n ~gso_size ~truncated from ~f:(fun d a ->
              segs := (d, a) :: !segs);
          t.pending <- List.rev !segs;
          recvfrom t
        end

let rec drain_into t buf f =
  if not t.closed then begin
    let n = receive t buf in
    if n >= 0 then begin
      split buf n ~gso_size:t.info.(0) ~truncated:(t.info.(1) <> 0) (source t)
        ~f;
      drain_into t buf f
    end
  end

let rec drain t ~f =
  match t.pending with
  | (d, from) :: rest ->
    t.pending <- rest;
    f d from;
    drain t ~f
  | [] ->
    let rx = Domain.DLS.get rx_key in
    if rx.busy then drain_into t (Bytes.create max_datagram) f
    else begin
      rx.busy <- true;
      match drain_into t rx.rbuf f with
      | () -> rx.busy <- false
      | exception e ->
        rx.busy <- false;
        raise e
    end

let close t =
  if not t.closed then begin
    t.closed <- true;
    t.pending <- [];
    t.qn <- 0;
    t.qbytes <- 0;
    t.qbuf <- Bytes.empty;
    t.qaddr <- [||];
    t.qlen <- [||];
    t.runs <- [||];
    Unix.close t.fd
  end
