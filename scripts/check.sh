#!/usr/bin/env bash
# Builds the full tree under a sanitizer and runs the test suite.
# The tracer's and introspector's lock-free recording paths and the
# engine's per-superstep accounting are only as good as this check: any
# data race in them shows up here, not in a flaky bench.
#
# Usage: scripts/check.sh [--sanitizer=thread|address,undefined]
#                         [--introspect] [--bench-smoke] [--perf-gate]
#                         [--obs-smoke] [--mcheck] [build-dir]
#   (default sanitizer: thread; default build-dir: build-<sanitizer>)
#
# --sanitizer=address,undefined runs the combined ASan+UBSan pass
# instead of TSan — the two passes are complementary (TSan cannot run
# with ASan in the same binary), so CI runs both.
#
# --introspect additionally runs a smoke of the watchdog wiring: a small
# fig6a-shaped CLI run (coloring, partition-locking) with JSONL snapshot
# streaming, then validates that the stream parses as JSON and contains
# at least one snapshot and no deadlock reports.
#
# --bench-smoke skips the sanitizer suite entirely: it builds the micro
# benches in Release and runs each with tiny iteration counts plus a
# --json round-trip — a crash/regression smoke, no timing assertions.
#
# --chaos skips the sanitizer suite entirely: it builds serigraph_cli in
# Release and drives seeded fault-injection runs end to end — a worker
# crash mid-superstep under each synchronization technique, and under
# plain BSP with forced pull, must recover to exit 0 with a fault section
# (and, for BSP, pull supersteps) in the metrics JSON, the same crash
# without --recover must abort with exit 3, and a randomized plan under
# --verify must still pass the serializability audit.
#
# --obs-smoke skips the sanitizer suite entirely: it builds serigraph_cli
# in Release and exercises the live telemetry plane end to end — a
# --serve-obs run whose four endpoints all answer (with the exposition
# validated by scripts/check_prom.py), a manually-triggered incident
# bundle that is complete on disk and whose trace tail is a slice of the
# same run's --trace-out file (one event store), a tail-able
# --live-report stream, and an injected-hang run where /healthz flips
# 503 before the process exits 3 with an automatic watchdog incident
# bundle.
#
# --mcheck skips the sanitizer suite entirely: it builds serichk in
# Release and runs the model-checking gate (ctest -L mcheck) — every
# synchronization technique exhaustively explored under the preemption
# bound on a small config, the planted-bug negative controls, and the
# cross-process determinism check. Each test is wall-clock capped (the
# exploration time caps + the ctest TIMEOUT), so the whole gate is
# bounded even if a future change blows up the schedule space. See
# docs/MODEL_CHECKING.md.
#
# --perf-gate skips the sanitizer suite entirely: it builds in Release
# and (a) runs a --perf-counters CLI smoke under SERIGRAPH_NO_PERF_HW=1
# (software fallback — shared CI runners usually deny perf_event_open)
# validating that the run report carries perf/memory sections and the
# trace carries counter events, then (b) reruns the micro benches and
# diffs their BENCH.json against the committed baseline with a wide
# noise threshold (order-of-magnitude regressions only). The fresh
# BENCH.json is left in the build dir for artifact upload.
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZER=thread
INTROSPECT_SMOKE=0
BENCH_SMOKE=0
CHAOS=0
PERF_GATE=0
OBS_SMOKE=0
MCHECK=0
while [[ "${1:-}" == --* ]]; do
  case "$1" in
    --sanitizer=*) SANITIZER="${1#--sanitizer=}" ;;
    --introspect)  INTROSPECT_SMOKE=1 ;;
    --bench-smoke) BENCH_SMOKE=1 ;;
    --chaos)       CHAOS=1 ;;
    --perf-gate)   PERF_GATE=1 ;;
    --obs-smoke)   OBS_SMOKE=1 ;;
    --mcheck)      MCHECK=1 ;;
    *) echo "check.sh: unknown flag $1" >&2; exit 2 ;;
  esac
  shift
done

if [[ "$MCHECK" == "1" ]]; then
  BUILD_DIR="${1:-build-mcheck}"
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target serichk
  ctest --test-dir "$BUILD_DIR" --output-on-failure -L mcheck
  echo "check.sh: model-checking gate passed"
  exit 0
fi

if [[ "$CHAOS" == "1" ]]; then
  BUILD_DIR="${1:-build-chaos}"
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target serigraph_cli
  CLI="$BUILD_DIR/examples/serigraph_cli"
  CHAOS_DIR="$(mktemp -d)"
  trap 'rm -rf "$CHAOS_DIR"' EXIT

  PLAN="$CHAOS_DIR/plan.txt"
  printf 'crash point=engine.pre_barrier worker=1 hit=3\n' > "$PLAN"

  # A worker crash mid-superstep under every technique must recover and
  # exit 0, and the run report must carry the recovery digest. The plain
  # BSP run forces pull: every superstep but the checkpoint cuts must
  # pull, before and after the restore.
  for sync in single-token dual-token vertex-locking partition-locking none; do
    METRICS="$CHAOS_DIR/metrics-$sync.json"
    MODEL_FLAGS=()
    if [[ "$sync" == none ]]; then
      MODEL_FLAGS=(--model=bsp --push-pull=pull)
    fi
    "$CLI" --algorithm=sssp --generator=erdos --vertices=300 --degree=4 \
      --seed=2 --sync="$sync" "${MODEL_FLAGS[@]}" --workers=3 \
      --fault-plan="$PLAN" --checkpoint-every=2 \
      --checkpoint-dir="$CHAOS_DIR" --recover \
      --metrics-json="$METRICS"
    python3 - "$METRICS" "$sync" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
fault = report.get("fault")
if not fault:
    sys.exit(f"chaos smoke [{sys.argv[2]}]: run report has no fault section")
if fault.get("recovery_attempts", 0) < 1:
    sys.exit(f"chaos smoke [{sys.argv[2]}]: no recovery attempt recorded")
if report["metrics"].get("fault.events_fired", 0) < 1:
    sys.exit(f"chaos smoke [{sys.argv[2]}]: no fault event fired")
pulled = report["metrics"].get("engine.pull_supersteps", 0)
if sys.argv[2] == "none" and pulled < 1:
    sys.exit(f"chaos smoke [{sys.argv[2]}]: forced pull ran no pull superstep")
print(f"chaos smoke [{sys.argv[2]}]: recovered in "
      f"{fault['recovery_attempts']} attempt(s), "
      f"{len(fault.get('events', []))} recovery events, "
      f"{pulled} pull supersteps")
EOF
  done

  # The same crash with recovery disabled must abort (exit 3), proving
  # the failure was real and not silently tolerated.
  if "$CLI" --algorithm=sssp --generator=erdos --vertices=300 --degree=4 \
      --seed=2 --sync=vertex-locking --workers=3 \
      --fault-plan="$PLAN" > /dev/null 2>&1; then
    echo "chaos smoke: crash without --recover unexpectedly succeeded" >&2
    exit 1
  else
    status=$?
    if [[ "$status" != 3 ]]; then
      echo "chaos smoke: expected abort exit 3, got $status" >&2
      exit 1
    fi
  fi

  # A randomized seeded plan with history recording: recovery must keep
  # the stitched execution serializable (the --verify audit gates it).
  "$CLI" --algorithm=coloring --generator=erdos --vertices=200 --degree=4 \
    --seed=2 --sync=partition-locking --workers=3 \
    --fault-plan=random --fault-seed=7 --checkpoint-every=1 \
    --checkpoint-dir="$CHAOS_DIR" --recover --verify

  echo "check.sh: chaos smoke passed"
  exit 0
fi

if [[ "$OBS_SMOKE" == "1" ]]; then
  BUILD_DIR="${1:-build-obs-smoke}"
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target serigraph_cli
  CLI="$BUILD_DIR/examples/serigraph_cli"
  OBS_DIR="$(mktemp -d)"
  trap 'rm -rf "$OBS_DIR"' EXIT

  wait_for_port() {
    # Extracts the ephemeral port from the CLI's stable announce line.
    local log="$1" port=""
    for _ in $(seq 1 150); do
      port="$(sed -n 's#^obs: serving http://127\.0\.0\.1:\([0-9]*\)/.*#\1#p' \
              "$log" | head -1)"
      [[ -n "$port" ]] && { echo "$port"; return 0; }
      sleep 0.1
    done
    return 1
  }

  fetch() {
    python3 -c '
import sys, urllib.request
url = "http://127.0.0.1:%s%s" % (sys.argv[1], sys.argv[2])
try:
    body = urllib.request.urlopen(url, timeout=5).read()
except urllib.error.HTTPError as e:
    body = e.read()
sys.stdout.write(body.decode())
' "$1" "$2"
  }

  # --- live half: a fig6-shaped run with the endpoint up. The run
  # itself is sub-second; --obs-linger-ms keeps the plane alive so the
  # scrapes, the manual incident trigger, and the live-report check all
  # happen against a live process, then the CLI must still exit 0.
  LOG="$OBS_DIR/run.log"
  LIVE="$OBS_DIR/live.jsonl"
  "$CLI" --algorithm=pagerank --generator=powerlaw --vertices=2000 \
    --degree=8 --sync=partition-locking --workers=4 \
    --serve-obs=0 --obs-linger-ms=15000 \
    --incident-dir="$OBS_DIR/incidents" --live-report="$LIVE" \
    --trace-out="$OBS_DIR/trace-out.json" > "$LOG" 2>&1 &
  CLI_PID=$!
  if ! PORT="$(wait_for_port "$LOG")"; then
    echo "obs smoke: CLI never announced the obs endpoint" >&2
    cat "$LOG" >&2
    kill "$CLI_PID" 2>/dev/null || true
    exit 1
  fi

  fetch "$PORT" /metrics > "$OBS_DIR/metrics.prom"
  python3 scripts/check_prom.py "$OBS_DIR/metrics.prom"
  fetch "$PORT" /healthz > "$OBS_DIR/healthz.json"
  fetch "$PORT" /statusz > "$OBS_DIR/statusz.json"
  fetch "$PORT" /incidentz > "$OBS_DIR/incidentz.json"
  fetch "$PORT" "/incidentz/trigger?reason=obs-smoke" > "$OBS_DIR/trigger.json"
  python3 - "$OBS_DIR" "$LIVE" <<'EOF'
import json, os, sys

d = sys.argv[1]
health = json.load(open(os.path.join(d, "healthz.json")))
if health.get("status") not in ("ok", "degraded", "unhealthy"):
    sys.exit("obs smoke: /healthz has no status field")
status = json.load(open(os.path.join(d, "statusz.json")))
for key in ("pid", "uptime_seconds", "build", "run", "rss_kb"):
    if key not in status:
        sys.exit(f"obs smoke: /statusz missing {key!r}")
json.load(open(os.path.join(d, "incidentz.json")))

trig = json.load(open(os.path.join(d, "trigger.json")))
bundle = trig.get("bundle")
if not bundle:
    sys.exit(f"obs smoke: /incidentz/trigger returned no bundle: {trig}")
manifest = json.load(open(os.path.join(bundle, "MANIFEST.json")))
if not manifest.get("complete"):
    sys.exit("obs smoke: bundle MANIFEST not marked complete")
for name in ("trace.json", "metrics.prom", "env.json", "waitfor.json",
             "faults.json"):
    if not os.path.exists(os.path.join(bundle, name)):
        sys.exit(f"obs smoke: bundle missing {name}")
trace = json.load(open(os.path.join(bundle, "trace.json")))
if not trace.get("traceEvents"):
    sys.exit("obs smoke: bundle flight-recorder tail is empty")

# Satellite 2: the per-superstep progress stream is already flushed to
# disk while the process is still alive (tail -f works mid-run).
rows = [json.loads(l) for l in open(sys.argv[2]) if l.strip()]
if not rows:
    sys.exit("obs smoke: live report empty while the process is still up")
for key in ("superstep", "active_vertices", "t_us"):
    if key not in rows[0]:
        sys.exit(f"obs smoke: live report rows lack {key!r}")
print(f"obs smoke: endpoints + manual bundle OK "
      f"({len(trace['traceEvents'])} trace events, "
      f"{len(rows)} live-report rows)")
EOF
  if wait "$CLI_PID"; then :; else
    echo "obs smoke: live run exited nonzero" >&2
    cat "$LOG" >&2
    exit 1
  fi

  # One event store: the bundle's tail is the newest slice of the trace
  # that --trace-out drained at the end of the run, so every span in it
  # appears there with the same name, lane and timing.
  python3 - "$OBS_DIR/trigger.json" "$OBS_DIR/trace-out.json" <<'EOF'
import json, os, sys

def spans(path):
    return [(e["name"], e["pid"], e["tid"], e["ts"], e["dur"])
            for e in json.load(open(path))["traceEvents"]
            if e.get("ph") == "X"]

bundle = json.load(open(sys.argv[1]))["bundle"]
tail = spans(os.path.join(bundle, "trace.json"))
full = set(spans(sys.argv[2]))
if not tail:
    sys.exit("obs smoke: the bundle's trace tail holds no spans")
missing = [s for s in tail if s not in full]
if missing:
    sys.exit(f"obs smoke: {len(missing)} of {len(tail)} bundle-tail spans "
             f"are not in the --trace-out file, e.g. {missing[0]}")
print(f"obs smoke: one event store ({len(tail)} tail spans, all among the "
      f"{len(full)} spans of the --trace-out file)")
EOF

  # --- unhealthy half: an injected hang parks one worker; the watchdog
  # confirms the stall, flips /healthz to 503, and writes an automatic
  # incident bundle; the stall fails the attempt, which releases the
  # hang, and with recovery off the run aborts with exit 3. The abort
  # follows the verdict within milliseconds, so the endpoint lingers to
  # be read, and the 503 must name the watchdog's own component (the
  # engine's abort adds an "engine" one).
  PLAN="$OBS_DIR/plan.txt"
  printf 'hang point=engine.post_compute worker=1 hit=2\n' > "$PLAN"
  LOG2="$OBS_DIR/abort.log"
  "$CLI" --algorithm=sssp --generator=erdos --vertices=300 --degree=4 \
    --seed=2 --sync=partition-locking --workers=3 \
    --fault-plan="$PLAN" --heartbeat-timeout-ms=4000 \
    --watchdog-ms=100 --stall-abort-ms=1000 --obs-linger-ms=3000 \
    --serve-obs=0 --incident-dir="$OBS_DIR/abort-incidents" \
    > "$LOG2" 2>&1 &
  ABORT_PID=$!
  if ! PORT2="$(wait_for_port "$LOG2")"; then
    echo "obs smoke: abort run never announced the obs endpoint" >&2
    cat "$LOG2" >&2
    kill "$ABORT_PID" 2>/dev/null || true
    exit 1
  fi
  SAW_503=0
  for _ in $(seq 1 100); do
    if ! kill -0 "$ABORT_PID" 2>/dev/null; then break; fi
    CODE="$(python3 -c '
import sys, urllib.request, urllib.error
try:
    print(urllib.request.urlopen(
        "http://127.0.0.1:%s/healthz" % sys.argv[1], timeout=2).status)
except urllib.error.HTTPError as e:
    # Only a 503 that the watchdog verdict reported counts.
    print(e.code if b"watchdog-stall" in e.read() else "503-other")
except Exception:
    print(0)
' "$PORT2")"
    if [[ "$CODE" == "503" ]]; then SAW_503=1; break; fi
    sleep 0.1
  done
  if wait "$ABORT_PID"; then
    echo "obs smoke: injected hang unexpectedly exited 0" >&2
    cat "$LOG2" >&2
    exit 1
  else
    ABORT_STATUS=$?
    if [[ "$ABORT_STATUS" != 3 ]]; then
      echo "obs smoke: expected abort exit 3, got $ABORT_STATUS" >&2
      cat "$LOG2" >&2
      exit 1
    fi
  fi
  if [[ "$SAW_503" != "1" ]]; then
    echo "obs smoke: /healthz never flipped 503 on the watchdog's stall" >&2
    cat "$LOG2" >&2
    exit 1
  fi
  python3 - "$OBS_DIR/abort-incidents" <<'EOF'
import json, os, sys
root = sys.argv[1]
bundles = sorted(d for d in os.listdir(root)
                 if os.path.isdir(os.path.join(root, d)))
if not bundles:
    sys.exit("obs smoke: abort produced no automatic incident bundle")
manifest = json.load(open(os.path.join(root, bundles[0], "MANIFEST.json")))
trigger = manifest.get("trigger", "")
if not (trigger.startswith("watchdog") or trigger.startswith("supervisor")
        or trigger.startswith("cli-abort")):
    sys.exit(f"obs smoke: unexpected bundle trigger {trigger!r}")
print(f"obs smoke: automatic bundle OK (trigger={trigger}, "
      f"{len(bundles)} bundle(s))")
EOF

  echo "check.sh: obs smoke passed"
  exit 0
fi

if [[ "$PERF_GATE" == "1" ]]; then
  BUILD_DIR="${1:-build-perf-gate}"
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD_DIR" -j "$(nproc)" \
    --target serigraph_cli micro_message_store fig6b_pagerank
  GATE_DIR="$(mktemp -d)"
  trap 'rm -rf "$GATE_DIR"' EXIT

  # Functional half: a --perf-counters run must produce the perf and
  # memory report sections and per-superstep counter events in the
  # trace, in software-fallback mode (SERIGRAPH_NO_PERF_HW=1 — the gate
  # must pass on runners where perf_event_open is denied, and forcing
  # the fallback everywhere keeps it deterministic).
  METRICS="$GATE_DIR/metrics.json"
  TRACE="$GATE_DIR/trace.json"
  SERIGRAPH_NO_PERF_HW=1 "$BUILD_DIR/examples/serigraph_cli" \
    --algorithm=pagerank --generator=powerlaw --vertices=2000 --degree=8 \
    --sync=partition-locking --workers=4 --perf-counters \
    --metrics-json="$METRICS" --trace-out="$TRACE"
  python3 - "$METRICS" "$TRACE" <<'EOF'
import json, sys

report = json.load(open(sys.argv[1]))
perf = report.get("perf")
if not perf:
    sys.exit("perf gate: run report has no perf section")
if perf.get("hw_counters"):
    sys.exit("perf gate: hw_counters true despite SERIGRAPH_NO_PERF_HW=1")
if not perf.get("fallback"):
    sys.exit("perf gate: software fallback engaged but no reason recorded")
phases = perf.get("phases", {})
if phases.get("compute.task_clock_ns", 0) <= 0:
    sys.exit("perf gate: no compute task-clock time attributed")
mem = report.get("memory")
if not mem or mem.get("peak_rss_kb", 0) <= 0:
    sys.exit("perf gate: no peak RSS recorded")
if not mem.get("samples"):
    sys.exit("perf gate: no per-superstep memory samples")
trace = json.load(open(sys.argv[2]))
counters = [e for e in trace.get("traceEvents", []) if e.get("ph") == "C"]
if not counters:
    sys.exit("perf gate: no counter events in the trace")
print("perf gate: report + trace OK (%d counter events, %d mem samples)"
      % (len(counters), len(mem["samples"])))
EOF

  # Regression half: micro bench medians AND the end-to-end fig6b grid
  # against the committed baseline (results/BENCH_pr9.json carries both
  # cell families). Threshold 5.0 = a cell must be 6x slower to fail —
  # shared runners are noisy and their CPUs differ from the baseline
  # machine, so this only catches order-of-magnitude regressions.
  # Tighter comparisons are for a dedicated box (docs/PERF.md). fig6b
  # runs at --reps=1 here: the wide threshold absorbs single-rep noise
  # and the full-median run stays a committed-snapshot-only concern.
  SERIGRAPH_NO_PERF_HW=1 "$BUILD_DIR/bench/micro_message_store" \
    --benchmark_min_time=0.02 --benchmark_repetitions=3 \
    --json="$GATE_DIR/micro_store.json"
  SERIGRAPH_NO_PERF_HW=1 "$BUILD_DIR/bench/fig6b_pagerank" \
    --reps=1 --json="$GATE_DIR/fig6b.json"
  python3 scripts/bench_compare.py --merge "$GATE_DIR/BENCH.json" \
    "$GATE_DIR/micro_store.json" "$GATE_DIR/fig6b.json"
  python3 scripts/bench_compare.py --threshold=5.0 --allow-env-mismatch \
    results/BENCH_pr9.json "$GATE_DIR/BENCH.json"
  cp "$GATE_DIR/BENCH.json" "$BUILD_DIR/BENCH.json"
  echo "check.sh: perf gate passed (fresh report at $BUILD_DIR/BENCH.json)"
  exit 0
fi

if [[ "$BENCH_SMOKE" == "1" ]]; then
  BUILD_DIR="${1:-build-bench-smoke}"
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD_DIR" -j "$(nproc)" \
    --target micro_message_store micro_transport micro_chandy_misra \
    micro_graph micro_history ablation_pushpull
  SMOKE_DIR="$(mktemp -d)"
  trap 'rm -rf "$SMOKE_DIR"' EXIT
  for bench in micro_message_store micro_transport micro_chandy_misra \
      micro_graph micro_history ablation_pushpull; do
    out="$SMOKE_DIR/$bench.json"
    if [[ "$bench" == ablation_pushpull ]]; then
      # Not a Google Benchmark binary: size it down instead (8k vertices).
      SERIGRAPH_SCALE=0.05 "$BUILD_DIR/bench/$bench" --json="$out"
    else
      "$BUILD_DIR/bench/$bench" --benchmark_min_time=0.01 --json="$out"
    fi
    python3 -c "
import json, sys
d = json.load(open('$out'))
if d.get('schema_version') != 2:
    sys.exit('$bench: --json output is not a schema-v2 BENCH report')
if not d.get('cells'):
    sys.exit('$bench: empty cell list in --json output')
if not d.get('environment', {}).get('compiler'):
    sys.exit('$bench: BENCH report has no environment fingerprint')
print('$bench: %d cells, json ok' % len(d['cells']))
"
  done

  # Push/pull switch smoke: the per-superstep transfer-strategy switch
  # (docs/PERF.md) must actually fire, in both directions. PageRank
  # under plain BSP keeps a dense frontier, so at least one superstep
  # must run in pull mode; SSSP's wavefront goes dense then sparse, so
  # its run must both pull (>= 1) and push (pulls < supersteps). And
  # every superstep's mode must follow the rule from the edge share
  # recorded at the barrier before it: capture iff share * kPullCostRatio
  # >= 1000 (superstep 0 is decided from the initial frontier).
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target serigraph_cli
  CLI="$BUILD_DIR/examples/serigraph_cli"
  "$CLI" --algorithm=pagerank --generator=powerlaw --vertices=2000 \
    --degree=8 --model=bsp --sync=none --workers=4 \
    --metrics-json="$SMOKE_DIR/pushpull-pagerank.json"
  "$CLI" --algorithm=sssp --generator=erdos --vertices=2000 --degree=8 \
    --seed=3 --model=bsp --sync=none --workers=4 \
    --metrics-json="$SMOKE_DIR/pushpull-sssp.json"
  python3 - "$SMOKE_DIR/pushpull-pagerank.json" \
    "$SMOKE_DIR/pushpull-sssp.json" src/pregel/model.h <<'EOF'
import json, re, sys

ratio = int(re.search(r"kPullCostRatio = (\d+);", open(sys.argv[3]).read())[1])
for path in sys.argv[1:3]:
    share, mode = {}, {}
    for row in json.load(open(path))["timeline"]:
        share[row["superstep"]] = row["frontier_edge_share_milli"]
        mode[row["superstep"]] = row["pull_mode"]
    for s in sorted(mode):
        if s - 1 not in share:
            continue
        captured = mode[s] & 1 == 1
        if captured != (share[s - 1] * ratio >= 1000):
            sys.exit(f"bench smoke: {path} superstep {s} "
                     f"{'captured' if captured else 'pushed'} after an edge "
                     f"share of {share[s - 1]}/1000 (kPullCostRatio {ratio})")

pr = json.load(open(sys.argv[1]))
pr_pulls = pr["metrics"].get("engine.pull_supersteps", 0)
if pr_pulls < 1:
    sys.exit("bench smoke: dense BSP PageRank never switched to pull "
             f"(pull_supersteps={pr_pulls})")

ss = json.load(open(sys.argv[2]))
ss_pulls = ss["metrics"].get("engine.pull_supersteps", 0)
ss_steps = ss["supersteps"]
if ss_pulls < 1:
    sys.exit("bench smoke: BSP SSSP never pulled on its dense supersteps "
             f"(pull_supersteps={ss_pulls})")
if ss_pulls >= ss_steps:
    sys.exit("bench smoke: BSP SSSP never switched back to push "
             f"(pull_supersteps={ss_pulls} of {ss_steps})")
print(f"push/pull smoke: pagerank pulled {pr_pulls}x, "
      f"sssp {ss_pulls}/{ss_steps} supersteps pulled")
EOF

  echo "check.sh: bench smoke passed"
  exit 0
fi

BUILD_DIR="${1:-build-$(echo "$SANITIZER" | tr ',' '-')}"

cmake -B "$BUILD_DIR" -S . -DSERIGRAPH_SANITIZE="$SANITIZER"
cmake --build "$BUILD_DIR" -j "$(nproc)"

# Second-guess the sanitizers' defaults: halt_on_error keeps the first
# report readable instead of burying it under cascading failures.
TSAN_OPTIONS="halt_on_error=1" \
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "check.sh: all tests passed under sanitizer '$SANITIZER'"

if [[ "$INTROSPECT_SMOKE" == "1" ]]; then
  SMOKE_DIR="$(mktemp -d)"
  trap 'rm -rf "$SMOKE_DIR"' EXIT
  JSONL="$SMOKE_DIR/introspect.jsonl"
  METRICS="$SMOKE_DIR/metrics.json"

  # watchdog-ms=10: the deadlock rule reads the fork table (a chain of
  # philosophers that cannot move, unchanged across two samples), not
  # the timing of progress counters, so a sanitizer's slowdown cannot
  # make a healthy run look deadlocked however short the period.
  TSAN_OPTIONS="halt_on_error=1" \
    "$BUILD_DIR/examples/serigraph_cli" \
      --algorithm=coloring --generator=powerlaw --vertices=2000 \
      --degree=8 --sync=partition-locking --workers=8 --latency-us=100 \
      --introspect-out="$JSONL" --watchdog-ms=10 \
      --metrics-json="$METRICS"

  python3 - "$JSONL" "$METRICS" <<'EOF'
import json, sys

jsonl_path, metrics_path = sys.argv[1], sys.argv[2]
snapshots = deadlocks = 0
with open(jsonl_path) as f:
    for i, line in enumerate(f, 1):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            sys.exit(f"introspect smoke: line {i} is not valid JSON: {e}")
        kind = rec.get("type")
        if kind == "snapshot":
            snapshots += 1
            if not isinstance(rec.get("workers"), list) or not rec["workers"]:
                sys.exit(f"introspect smoke: snapshot {i} has no workers")
            if "wait_for" not in rec:
                sys.exit(f"introspect smoke: snapshot {i} has no wait_for")
        elif kind == "deadlock":
            deadlocks += 1
if snapshots < 1:
    sys.exit("introspect smoke: no snapshots in the JSONL stream")
if deadlocks:
    sys.exit(f"introspect smoke: {deadlocks} false-positive deadlock report(s)")

report = json.load(open(metrics_path))
intro = report.get("introspection")
if not intro:
    sys.exit("introspect smoke: run report has no introspection section")
if intro.get("snapshots", 0) < 1:
    sys.exit("introspect smoke: run report records zero snapshots")
if intro.get("deadlocks", 0) != 0:
    sys.exit("introspect smoke: run report records a deadlock")
print(f"introspect smoke: OK ({snapshots} snapshots, "
      f"{len(intro.get('contention_top', []))} contention rows)")
EOF

  echo "check.sh: introspection smoke passed"
fi
