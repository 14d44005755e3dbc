#!/usr/bin/env bash
# Launches a real multi-process gTop-k S-SGD cluster on localhost: one
# `gtopk` process per rank over the TCP transport, rendezvousing through
# OS-assigned ports published in a shared directory — then (optionally)
# SIGKILLs one worker mid-run and lets the survivors recover through the
# ULFM-style shrink-and-continue path, with no fault flags armed.
#
# Usage:
#   scripts/run_tcp_cluster.sh [P] [EPOCHS] [KILL_RANK]
#
#   P          number of worker processes            (default 4)
#   EPOCHS     training epochs                       (default 100: the
#              kill lands 2 s in, and the run must still be going)
#   KILL_RANK  rank to SIGKILL mid-run, or "none"    (default P-1)
#
# Exits non-zero unless every surviving rank finishes all epochs and —
# when a rank was killed — reports the shrunken membership.
set -euo pipefail
cd "$(dirname "$0")/.."

P="${1:-4}"
EPOCHS="${2:-100}"
KILL_RANK="${3:-$((P - 1))}"

echo "==> building the gtopk binary (offline)"
cargo build -q --offline -p gtopk-cli

BIN=target/debug/gtopk
DIR="$(mktemp -d "${TMPDIR:-/tmp}/gtopk-tcp-XXXXXX")"
trap 'kill ${PIDS[@]:-} 2>/dev/null || true; rm -rf "$DIR"' EXIT

echo "==> launching $P ranks (rendezvous dir: $DIR)"
PIDS=()
for ((r = 0; r < P; r++)); do
  "$BIN" train \
    --transport tcp --rank "$r" --rendezvous "$DIR" \
    --workers "$P" --model mlp --epochs "$EPOCHS" \
    --batch 4 --density 0.05 \
    >"$DIR/rank-$r.out" 2>&1 &
  PIDS[r]=$!
done

if [[ "$KILL_RANK" != "none" ]]; then
  # Give the cluster time to connect and enter training, then kill the
  # victim for real. Its peers only find out through their sockets.
  sleep 2
  echo "==> SIGKILL rank $KILL_RANK (pid ${PIDS[KILL_RANK]})"
  kill -9 "${PIDS[KILL_RANK]}" 2>/dev/null || true
fi

status=0
for ((r = 0; r < P; r++)); do
  if [[ "$KILL_RANK" != "none" && "$r" == "$KILL_RANK" ]]; then
    wait "${PIDS[r]}" 2>/dev/null || true
    continue
  fi
  if ! wait "${PIDS[r]}"; then
    echo "!! rank $r failed:"
    cat "$DIR/rank-$r.out"
    status=1
  fi
done

echo "==> survivor reports"
for ((r = 0; r < P; r++)); do
  [[ "$KILL_RANK" != "none" && "$r" == "$KILL_RANK" ]] && continue
  echo "---- rank $r"
  cat "$DIR/rank-$r.out"
  if [[ "$KILL_RANK" != "none" ]]; then
    if ! grep -q "$((P - 1))/$P ranks survived" "$DIR/rank-$r.out"; then
      echo "!! rank $r did not report the shrunken membership"
      status=1
    fi
  fi
done

if [[ "$status" == 0 ]]; then
  echo "==> OK"
else
  echo "==> FAILED"
fi
exit "$status"
