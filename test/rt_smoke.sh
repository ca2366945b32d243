#!/bin/sh
# Real-sockets check of the daemon binaries: three strovl_node daemons on
# a loopback line 0-1-2, receiver sessions at node 2, and 200-packet
# strovl_send flows from node 0, two overlay hops away, one after the
# other: reliable, realtime and FEC, then a reliable multicast flow to
# group 5, which one receiver at node 2 joins. Each is sent unpaced, so
# the daemons' batched sends carry several replies and link frames at a
# time. Exits non-zero (printing every process's output) unless each
# sender's Sends are all accepted and acknowledged, each receiver gets all
# 200 packets and node 0's stats show no bad datagram: every frame must
# still come out of a receive as a datagram of its own to decode.
#
#   sh test/rt_smoke.sh path/to/strovl_node.exe path/to/strovl_send.exe
set -eu
node=$1
send=$2
dir=$(mktemp -d)
pids=
cleanup() {
  for p in $pids; do kill "$p" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$dir"
}
trap cleanup EXIT

# Ports no socket holds: plain sockets, all held at once, then released.
ports=$(python3 -c '
import socket
ss = [socket.socket(socket.AF_INET, socket.SOCK_DGRAM) for _ in range(3)]
for s in ss:
    s.bind(("127.0.0.1", 0))
print(" ".join(str(s.getsockname()[1]) for s in ss))
')
set -- $ports
cat > "$dir/topo" <<EOF
node 0 127.0.0.1:$1
node 1 127.0.0.1:$2
node 2 127.0.0.1:$3
link 0 1 5
link 1 2 5
EOF

for id in 0 1 2; do
  "$node" --topo "$dir/topo" --id "$id" --hello-ms 20 --duration 30 \
    > "$dir/node$id.out" 2>&1 &
  pids="$pids $!"
done
# One receiver session at node 2 per flow, each on its own port.
receivers=
for svc in reliable realtime fec; do
  case $svc in reliable) port=9 ;; realtime) port=11 ;; fec) port=13 ;; esac
  "$send" --topo "$dir/topo" --node 2 --sport "$port" --expect 200 \
    --timeout-sec 20 > "$dir/receiver-$svc.out" 2>&1 &
  receivers="$receivers $!"
done
"$send" --topo "$dir/topo" --node 2 --sport 15 --group 5 --expect 200 \
  --timeout-sec 20 > "$dir/receiver-mcast.out" 2>&1 &
receivers="$receivers $!"
pids="$pids $receivers"
# A few dozen hello intervals: links up, LSUs flooded, routes settled.
sleep 2

status=0
for svc in reliable realtime fec; do
  case $svc in reliable) port=9 ;; realtime) port=11 ;; fec) port=13 ;; esac
  "$send" --topo "$dir/topo" --node 0 --sport $((port - 1)) --dest 2 \
    --dport "$port" --service "$svc" --count 200 --interval-ms 0 --stats \
    > "$dir/sender-$svc.out" 2>&1 || status=1
  # The sender's socket receives the daemon's Sent replies as coalesced
  # runs and splits them back into datagrams; a reply cut at the wrong
  # place would not decode, and go unacknowledged.
  grep -q '^sent 200: 200 acknowledged, 0 refused$' "$dir/sender-$svc.out" \
    || status=1
  # Node 0's stats (--stats): it counts its receives, and decoded every
  # datagram it split out of them.
  grep -q '"rx_batches":' "$dir/sender-$svc.out" || status=1
  grep -q '"bad_datagrams":0,' "$dir/sender-$svc.out" || status=1
done
# The multicast flow: the receiver joined group 5 at node 2, and its Join
# has reached node 0 by flooding.
"$send" --topo "$dir/topo" --node 0 --sport 14 --group-send 5 --dport 15 \
  --count 200 --interval-ms 0 --stats > "$dir/sender-mcast.out" 2>&1 || status=1
grep -q '^sent 200: 200 acknowledged, 0 refused$' "$dir/sender-mcast.out" \
  || status=1
grep -q '"rx_batches":' "$dir/sender-mcast.out" || status=1
grep -q '"bad_datagrams":0,' "$dir/sender-mcast.out" || status=1
for r in $receivers; do
  wait "$r" || status=1
done
if [ "$status" -ne 0 ]; then
  echo "rt_smoke: a flow across two daemon hops failed" >&2
  for f in "$dir"/*.out; do
    echo "== $(basename "$f")" >&2
    cat "$f" >&2
  done
fi
exit "$status"
