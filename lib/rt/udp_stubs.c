/* The Udp module's socket calls that the Unix library lacks.

   Sending (Udp.flush): sendmmsg(2) with UDP generic segmentation offload.
   The OCaml side plans the queue into runs (Udp.plan): 3 ints per run,
   [first datagram; segment size; segment count]. Runs are contiguous in
   the queue buffer in order, so a run's offset is the sum of the sizes of
   the runs before it. A run of more than one segment goes out as one
   message carrying a UDP_SEGMENT control message; the kernel delivers it
   as [count] datagrams of [size] bytes each, or whole to a socket that
   set UDP_GRO. Everything lives on the C stack: the stub allocates
   nothing, in C or on the OCaml heap.

   Receiving (Udp.drain, Udp.recvfrom): recvmsg(2) on a UDP_GRO socket,
   reporting the segment size the OCaml side splits a coalesced run at. */

#define _GNU_SOURCE
#include <errno.h>
#include <stdint.h>
#include <string.h>
#include <time.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <netinet/in.h>
#include <netinet/udp.h>

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/unixsupport.h>
#include <caml/socketaddr.h>

#ifndef UDP_SEGMENT
#define UDP_SEGMENT 103
#endif
#ifndef UDP_GRO
#define UDP_GRO 104
#endif

/* Udp.max_queue and Udp.max_segments. */
#define MAX_RUNS 128
#define MAX_SEGMENTS 64

/* The kernel dropped this one message without prejudice: UDP loss. */
static int is_loss(int e)
{
  return e == EAGAIN || e == EWOULDBLOCK || e == ENOBUFS || e == ECONNREFUSED;
}

/* The kernel cannot segment on this socket or route. */
static int is_gso_refusal(int e)
{
  return e == EINVAL || e == EIO || e == ENOPROTOOPT;
}

/* Sends v[0..n) with as few sendmmsg calls as the kernel allows, counting
   them in [*calls]. A message hit by a loss error is skipped. Returns the
   index of the first segmented message the kernel refused to segment, or
   n when every message was handled; raises Unix_error on anything else. */
static int send_all(int fd, struct mmsghdr *v, int n, int *calls)
{
  int i = 0;
  while (i < n) {
    int r = sendmmsg(fd, v + i, n - i, 0);
    (*calls)++;
    if (r > 0) {
      i += r;
      continue;
    }
    if (errno == EINTR) continue;
    if (is_loss(errno)) {
      i++;
      continue;
    }
    if (v[i].msg_hdr.msg_controllen > 0 && is_gso_refusal(errno)) return i;
    caml_uerror("sendmmsg", Nothing);
  }
  return n;
}

/* One run as [segs] separate datagrams: the fallback once the kernel has
   refused segmentation. */
static void send_singles(int fd, char *base, int size, int segs,
                         struct sockaddr *sa, socklen_t salen, int *calls)
{
  struct mmsghdr v[MAX_SEGMENTS];
  struct iovec io[MAX_SEGMENTS];
  memset(v, 0, sizeof(struct mmsghdr) * segs);
  for (int k = 0; k < segs; k++) {
    io[k].iov_base = base + (size_t)k * size;
    io[k].iov_len = size;
    v[k].msg_hdr.msg_name = sa;
    v[k].msg_hdr.msg_namelen = salen;
    v[k].msg_hdr.msg_iov = &io[k];
    v[k].msg_hdr.msg_iovlen = 1;
  }
  /* No message here carries UDP_SEGMENT, so send_all cannot stop early. */
  send_all(fd, v, segs, calls);
}

/* strovl_udp_sendmmsg fd buf addrs runs nruns: returns 2 * (sendmmsg
   calls made), plus 1 if the kernel refused to segment. */
CAMLprim value strovl_udp_sendmmsg(value vfd, value vbuf, value vaddrs,
                                   value vruns, value vnruns)
{
  int fd = Int_val(vfd);
  int n = Int_val(vnruns);
  char *buf = (char *)Bytes_val(vbuf);
  struct mmsghdr v[MAX_RUNS];
  struct iovec io[MAX_RUNS];
  union sock_addr_union sa[MAX_RUNS];
  socklen_param_type salen[MAX_RUNS];
  union {
    char buf[CMSG_SPACE(sizeof(uint16_t))];
    struct cmsghdr align;
  } ctl[MAX_RUNS];
  size_t off[MAX_RUNS + 1];
  size_t buflen = caml_string_length(vbuf);
  mlsize_t naddrs = Wosize_val(vaddrs);
  int calls = 0, refused = 0;

  if (n < 0 || n > MAX_RUNS || (mlsize_t)(3 * n) > Wosize_val(vruns))
    caml_invalid_argument("Udp.flush: bad run count");
  if (n == 0) return Val_int(0);
  memset(v, 0, sizeof(struct mmsghdr) * n);
  off[0] = 0;
  for (int k = 0; k < n; k++) {
    int first = Long_val(Field(vruns, 3 * k));
    int size = Long_val(Field(vruns, 3 * k + 1));
    int segs = Long_val(Field(vruns, 3 * k + 2));
    if (first < 0 || (mlsize_t)first >= naddrs || size < 0 || segs < 1
        || segs > MAX_SEGMENTS || off[k] + (size_t)size * segs > buflen)
      caml_invalid_argument("Udp.flush: bad run");
    caml_unix_get_sockaddr(Field(vaddrs, first), &sa[k], &salen[k]);
    io[k].iov_base = buf + off[k];
    io[k].iov_len = (size_t)size * segs;
    off[k + 1] = off[k] + io[k].iov_len;
    v[k].msg_hdr.msg_name = &sa[k].s_gen;
    v[k].msg_hdr.msg_namelen = salen[k];
    v[k].msg_hdr.msg_iov = &io[k];
    v[k].msg_hdr.msg_iovlen = 1;
    if (segs > 1) {
      struct cmsghdr *c;
      memset(ctl[k].buf, 0, sizeof(ctl[k].buf));
      v[k].msg_hdr.msg_control = ctl[k].buf;
      v[k].msg_hdr.msg_controllen = sizeof(ctl[k].buf);
      c = CMSG_FIRSTHDR(&v[k].msg_hdr);
      c->cmsg_level = SOL_UDP;
      c->cmsg_type = UDP_SEGMENT;
      c->cmsg_len = CMSG_LEN(sizeof(uint16_t));
      *(uint16_t *)(void *)CMSG_DATA(c) = (uint16_t)size;
    }
  }
  int i = send_all(fd, v, n, &calls);
  if (i < n) {
    /* The refused run and every later one go out unsegmented. */
    refused = 1;
    for (; i < n; i++) {
      int size = Long_val(Field(vruns, 3 * i + 1));
      int segs = Long_val(Field(vruns, 3 * i + 2));
      send_singles(fd, buf + off[i], size, segs, &sa[i].s_gen, salen[i],
                   &calls);
    }
  }
  return Val_int(2 * calls + refused);
}

/* strovl_udp_set_gro fd: asks the kernel to hand this socket a UDP_SEGMENT
   run as one coalesced receive; true if it agreed. */
CAMLprim value strovl_udp_set_gro(value vfd)
{
  int one = 1;
  return Val_bool(setsockopt(Int_val(vfd), SOL_UDP, UDP_GRO, &one,
                             sizeof(one)) == 0);
}

/* strovl_udp_recvmsg fd buf info: one non-blocking receive into buf.
   Returns the byte count, or -1 when nothing is ready: the socket would
   block, a bounced-send ECONNREFUSED notification was pending instead of
   data, or a signal interrupted. On data it fills info with the
   segment size from the UDP_GRO control message (0 for a plain
   datagram), 1 if the kernel cut the receive short (MSG_TRUNC) or 0,
   and the IPv4 source address and port, in host byte order. Allocates
   nothing, and raises Unix_error on any other error. */
CAMLprim value strovl_udp_recvmsg(value vfd, value vbuf, value vinfo)
{
  struct sockaddr_storage ss;
  struct sockaddr_in *sin = (struct sockaddr_in *)(void *)&ss;
  struct iovec io;
  struct msghdr m;
  struct cmsghdr *c;
  union {
    char buf[CMSG_SPACE(sizeof(int))];
    struct cmsghdr align;
  } ctl;
  int gso = 0;
  ssize_t n;

  if (Wosize_val(vinfo) < 4) caml_invalid_argument("Udp: bad info array");
  io.iov_base = Bytes_val(vbuf);
  io.iov_len = caml_string_length(vbuf);
  memset(&m, 0, sizeof(m));
  m.msg_name = &ss;
  m.msg_namelen = sizeof(ss);
  m.msg_iov = &io;
  m.msg_iovlen = 1;
  m.msg_control = ctl.buf;
  m.msg_controllen = sizeof(ctl.buf);
  n = recvmsg(Int_val(vfd), &m, MSG_DONTWAIT);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNREFUSED
        || errno == EINTR)
      return Val_int(-1);
    caml_uerror("recvmsg", Nothing);
  }
  for (c = CMSG_FIRSTHDR(&m); c != NULL; c = CMSG_NXTHDR(&m, c))
    if (c->cmsg_level == SOL_UDP && c->cmsg_type == UDP_GRO)
      memcpy(&gso, CMSG_DATA(c), sizeof(gso));
  /* Immediate ints: no write barrier needed. */
  Field(vinfo, 0) = Val_int(gso);
  Field(vinfo, 1) = Val_bool(m.msg_flags & MSG_TRUNC);
  if (ss.ss_family == AF_INET) {
    Field(vinfo, 2) = Val_long(ntohl(sin->sin_addr.s_addr));
    Field(vinfo, 3) = Val_int(ntohs(sin->sin_port));
  } else {
    Field(vinfo, 2) = Val_int(0);
    Field(vinfo, 3) = Val_int(0);
  }
  return Val_long(n);
}

/* Rt_clock.now_ns: CLOCK_MONOTONIC in nanoseconds. The unboxed entry is
   the one native code calls, without allocating; the boxed one serves
   bytecode. */
CAMLprim int64_t strovl_clock_now_ns_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

CAMLprim value strovl_clock_now_ns(value unit)
{
  return caml_copy_int64(strovl_clock_now_ns_unboxed(unit));
}
