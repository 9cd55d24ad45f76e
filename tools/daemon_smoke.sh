#!/usr/bin/env bash
# End-to-end smoke for the difftuned serving daemon:
#
#   1. save-tiny two checkpoints with different seeds (untrained —
#      milliseconds — but deterministic and distinct)
#   2. require `serve --port 70000` and `serve --port abc` to exit 1
#      naming --port (a port must never wrap into another one)
#   3. start difftuned on an ephemeral loopback port
#   4. drive a few hundred requests from concurrent client threads,
#      hot-swapping the model mid-run, and audit the daemon's own
#      /statsz over the wire (zero daemon errors, every engine's
#      requests == hits + misses)
#   5. SIGTERM the daemon and require a clean graceful-drain exit 0
#
# Usage: daemon_smoke.sh <path-to-difftuned-binary>
#
# Run by the daemon.smoke CTest entry and the daemon-smoke CI job.
set -Eeuo pipefail

DIFFTUNED=${1:?usage: daemon_smoke.sh <difftuned binary>}
WORKDIR=$(mktemp -d)
DAEMON_PID=""
cleanup() {
    [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

# Every failure names the step it happened in: an unbound variable
# or a failing command mid-script must never exit behind the last
# banner's misleading "OK"-looking output.
STEP="startup"
step() { STEP="$*"; echo "== $STEP"; }
on_err() {
    echo "FAIL: step '$STEP' failed at line $1 (exit $2)" >&2
}
trap 'on_err "$LINENO" "$?"' ERR

step "save-tiny checkpoints"
"$DIFFTUNED" save-tiny "$WORKDIR/a.ckpt" 5
"$DIFFTUNED" save-tiny "$WORKDIR/b.ckpt" 9

step "serve refuses ports it cannot bind as given"
# A refused port exits 1 at once; one that wrapped would listen
# until the timeout (exit 124).
for BAD_PORT in 70000 abc; do
    BAD_RC=0
    BAD_OUT=$(timeout 10 "$DIFFTUNED" serve default="$WORKDIR/a.ckpt" \
        --port "$BAD_PORT" 2>&1) || BAD_RC=$?
    if [ "$BAD_RC" -ne 1 ] || ! grep -q -e '--port' <<<"$BAD_OUT"; then
        echo "FAIL: serve --port $BAD_PORT exited $BAD_RC, want 1" \
            "naming --port; output: $BAD_OUT"
        exit 1
    fi
    echo "   --port $BAD_PORT: $BAD_OUT"
done

step "start difftuned (ephemeral port)"
"$DIFFTUNED" serve default="$WORKDIR/a.ckpt" \
    --port 0 --port-file "$WORKDIR/port.txt" &
DAEMON_PID=$!

# The port file is written only once the socket is live.
for _ in $(seq 1 100); do
    [ -s "$WORKDIR/port.txt" ] && break
    kill -0 "$DAEMON_PID" 2>/dev/null ||
        { echo "FAIL: daemon died before listening"; exit 1; }
    sleep 0.1
done
[ -s "$WORKDIR/port.txt" ] ||
    { echo "FAIL: no port file after 10s"; exit 1; }
PORT=$(cat "$WORKDIR/port.txt")
echo "   port $PORT"

step "client: 400 requests, 4 threads, hot-swap mid-run, audit"
# --check fails the client (exit 1) on any request error or if the
# daemon's /statsz counters do not reconcile.
"$DIFFTUNED" client "$PORT" --requests 400 --threads 4 \
    --swap default="$WORKDIR/b.ckpt" --check

step "SIGTERM: graceful drain must exit 0"
kill -TERM "$DAEMON_PID"
DRAIN_RC=0
wait "$DAEMON_PID" || DRAIN_RC=$?
DAEMON_PID=""
if [ "$DRAIN_RC" -ne 0 ]; then
    echo "FAIL: difftuned exited $DRAIN_RC after SIGTERM"
    exit 1
fi

echo "daemon smoke OK"
