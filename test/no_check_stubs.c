/* Test helper: SO_NO_CHECK on a UDP socket makes the kernel refuse
   UDP_SEGMENT sends with EINVAL, which exercises Udp.flush's fallback to
   single datagrams. */

#include <sys/socket.h>

#define CAML_NAME_SPACE
#include <caml/mlvalues.h>
#include <caml/unixsupport.h>

CAMLprim value strovl_test_set_no_check(value vfd)
{
  int one = 1;
  if (setsockopt(Int_val(vfd), SOL_SOCKET, SO_NO_CHECK, &one, sizeof one) < 0)
    caml_uerror("setsockopt", Nothing);
  return Val_unit;
}
