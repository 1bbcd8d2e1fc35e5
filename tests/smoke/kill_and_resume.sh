#!/usr/bin/env bash
# Kill-and-resume smoke: the crash-safety guarantee end to end through the
# real binary.  SIGKILL an `ftmc optimize` campaign once its first snapshot
# is on disk (no chance to drain), resume from the snapshot, and require the
# final front and the trajectory fields of the per-generation telemetry to
# be identical to an uninterrupted run of the same configuration.
#
#   kill_and_resume.sh FTMC SOURCE_DIR WORK_DIR
#
# FTMC is the built `ftmc` binary; WORK_DIR is emptied and receives every
# artifact.  ctest runs it under the label `smoke`; the first failed step
# fails the script.
set -euo pipefail

ftmc=$1
source_dir=$2
work=$3
rm -rf "$work"
mkdir -p "$work"

flags=("$source_dir/examples/systems/demo.ftmc"
       --generations=120 --population=24 --seeds=7,8
       --checkpoint-every=1 --quiet)

"$ftmc" optimize "${flags[@]}" \
  --front-json="$work/reference.front.json" \
  --telemetry-jsonl="$work/reference.jsonl" \
  --metrics-json="$work/reference.metrics.json"

"$ftmc" optimize "${flags[@]}" --checkpoint="$work/run.ckpt" &
victim=$!
# A failed step below must not leave the victim running.
trap '[ -z "$victim" ] || kill -KILL "$victim" 2>/dev/null || true' EXIT
# The first snapshot triggers the kill, so it lands mid-run.  Test the
# file once: each later snapshot rotates it away (to run.ckpt.s0.1) for a
# moment before the new one is renamed into place.
snapshot=0
for _ in $(seq 1 3000); do
  if [ -f "$work/run.ckpt.s0" ]; then
    snapshot=1
    break
  fi
  sleep 0.01
done
if [ "$snapshot" -ne 1 ]; then
  echo "error: no snapshot appeared within 30 s" >&2
  exit 1
fi
kill -KILL "$victim" || true
status=0
wait "$victim" || status=$?
victim=
# 137 = 128 + SIGKILL.  Any other status means the run ended before the
# kill, and the resume below would prove nothing.
if [ "$status" -ne 137 ]; then
  echo "error: the checkpointed run exited with status $status;" \
       "expected death by SIGKILL (137)" >&2
  exit 1
fi

"$ftmc" optimize "${flags[@]}" \
  --resume="$work/run.ckpt" \
  --front-json="$work/resumed.front.json" \
  --telemetry-jsonl="$work/resumed.jsonl" \
  --metrics-json="$work/resumed.metrics.json"

diff "$work/reference.front.json" "$work/resumed.front.json"

# Snapshots go through the production checkpoint reader (the one --resume
# uses), every rotated copy included.
"$ftmc" check "$work"/run.ckpt*
python3 "$source_dir/tools/check_metrics.py" \
  --metrics "$work/resumed.metrics.json" \
  --expect-counter 'dse.resume.loads>=1' \
  --expect-counter 'dse.checkpoint.writes>=1' \
  --compare-jsonl "$work/reference.jsonl" "$work/resumed.jsonl"
# The GA's one memo, the candidate-keyed L1, answers repeated offspring in
# the real binary.  A separate call, because --expect-counter applies to
# every --metrics file and the reference run has no resume counters.
python3 "$source_dir/tools/check_metrics.py" \
  --metrics "$work/reference.metrics.json" \
  --expect-counter 'cache.eval.hits>=1'
echo "kill-and-resume: killed mid-run, resumed front identical"
