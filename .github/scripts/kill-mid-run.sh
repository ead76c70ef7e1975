#!/usr/bin/env bash
# Start a journaled battery, SIGKILL it as soon as its journal contains
# MARK (e.g. the first warm task of some kind), and check that the kill
# landed mid-run: no run_finished event, and the finished experiments
# a strict subset of the run's selection.  A timed kill cannot promise
# that -- a cold smoke battery can finish in about a second -- and
# experiments finish in one burst once the warm phase is done, so the
# mark is a warm-task event, not a finished experiment.
#
# Usage: kill-mid-run.sh JOURNAL MARK COMMAND...   (COMMAND writes JOURNAL)
set -u
journal=$1
mark=$2
shift 2
rm -f "$journal"
# in its own process group, so the kill takes the --jobs workers too
setsid "$@" &
pid=$!
until grep -qF "$mark" "$journal" 2>/dev/null; do
  if ! kill -0 "$pid" 2>/dev/null; then
    echo "battery exited before journaling $mark" >&2
    exit 1
  fi
  sleep 0.02
done
kill -9 -- -"$pid"
wait "$pid" 2>/dev/null
echo "battery killed after journaling $mark"
python - "$journal" <<'PY'
import sys

from repro.obs.journal import finished_experiments, read_journal_tolerant

events, problems = read_journal_tolerant(sys.argv[1])
selection = next(e["selection"] for e in events if e["event"] == "run_started")
finished = finished_experiments(events)
print(
    f"killed run: {len(finished)} of {len(selection)} experiments finished,"
    f" {len(problems)} truncated line(s)"
)
assert not any(e["event"] == "run_finished" for e in events), "run had finished"
assert set(finished) < set(selection), (finished, selection)
PY
