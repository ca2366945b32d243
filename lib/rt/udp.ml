type t = {
  fd : Unix.file_descr;
  buf : Bytes.t;  (** reused receive buffer — no per-datagram allocation *)
  mutable closed : bool;
}

(* Max UDP payload we ever expect: overlay headers are small (the codec
   never materializes application payload), but session Stats frames carry
   JSON. Comfortably under the 64k datagram limit. *)
let max_datagram = 16384

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
  { fd; buf = Bytes.create max_datagram; closed = false }

let fd t = t.fd

let port t =
  match Unix.getsockname t.fd with
  | Unix.ADDR_INET (_, p) -> p
  | _ -> assert false

let send t addr buf len =
  match Unix.sendto t.fd buf 0 len [] addr with
  | _ -> true
  | exception
      Unix.Unix_error
        ( ( Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.ECONNREFUSED
          | Unix.ENOBUFS ),
          _,
          _ ) ->
    false

let sendto t addr data =
  send t addr (Bytes.unsafe_of_string data) (String.length data)

let recvfrom t =
  match Unix.recvfrom t.fd t.buf 0 (Bytes.length t.buf) [] with
  | n, addr -> Some (Bytes.sub_string t.buf 0 n, addr)
  | exception
      Unix.Unix_error
        ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.ECONNREFUSED), _, _) ->
    None
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> None

let rec drain t ~f =
  if not t.closed then
    match recvfrom t with
    | Some (data, addr) ->
      f data addr;
      drain t ~f
    | None -> ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    Unix.close t.fd
  end
