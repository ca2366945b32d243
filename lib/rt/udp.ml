type t = {
  fd : Unix.file_descr;
  buf : Bytes.t;  (** reused receive buffer — no per-datagram allocation *)
  mutable closed : bool;
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

(* Max UDP payload we ever expect: overlay headers are small (the codec
   never materializes application payload), but session Stats frames carry
   JSON. Comfortably under the 64k datagram limit. *)
let max_datagram = 16384

let max_queue = 128
let max_queue_bytes = 1 lsl 18
let max_segments = 64
let max_run_bytes = 65507

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
    buf = Bytes.create max_datagram;
    closed = false;
    qbuf = Bytes.empty;
    qbytes = 0;
    qn = 0;
    qaddr = Array.make max_queue (Unix.ADDR_UNIX "");
    qlen = Array.make max_queue 0;
    runs = Array.make (3 * max_queue) 0;
    segment = true;
  }

let fd t = t.fd

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

(* Nothing to read: the socket would block, a bounced-send [ECONNREFUSED]
   notification was pending instead of data, or a signal interrupted. *)
let nothing_ready = function
  | Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.ECONNREFUSED | Unix.EINTR -> true
  | _ -> false

let recvfrom t =
  match Unix.recvfrom t.fd t.buf 0 (Bytes.length t.buf) [] with
  | n, addr -> Some (Bytes.sub_string t.buf 0 n, addr)
  | exception Unix.Unix_error (e, _, _) when nothing_ready e -> None

(* Not through [recvfrom]: no option and pair to box per datagram. *)
let rec drain t ~f =
  if not t.closed then
    match Unix.recvfrom t.fd t.buf 0 (Bytes.length t.buf) [] with
    | n, addr ->
      f (Bytes.sub_string t.buf 0 n) addr;
      drain t ~f
    | exception Unix.Unix_error (e, _, _) when nothing_ready e -> ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    t.qn <- 0;
    t.qbytes <- 0;
    t.qbuf <- Bytes.empty;
    t.qaddr <- [||];
    t.qlen <- [||];
    t.runs <- [||];
    Unix.close t.fd
  end
