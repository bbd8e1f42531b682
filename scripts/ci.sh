#!/usr/bin/env bash
# CI entry point: build, test, and a budgeted end-to-end smoke run.
# Every stage is wrapped in timeout(1) so a hang fails the pipeline
# instead of stalling it.
set -euo pipefail
cd "$(dirname "$0")/.."
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

timeout 300 dune build
timeout 900 dune runtest

# Deep netlists: a 100k-deep forward-referenced chain must parse, walk,
# SAT-encode and simulate with the stack capped at 1M words, where
# recursion overflows, and COM must run to completion and collapse the
# chain of equivalent gates onto one AND.
# Run the built binary directly so the cap does not apply to dune.
OCAMLRUNPARAM=l=1M timeout 120 _build/default/test/deep/deep.exe \
  || { echo "ci: deep netlist (FAIL)"; exit 1; }
echo "ci: deep netlist ok"

# COM's sweep is linear on chains of equivalent gates: COM,RET,COM on a
# 20k-link chain (every link computes a & ~b) must bound its one
# target well inside the time limit.
awk 'BEGIN {
  n = 20000
  print "INPUT(a)"; print "INPUT(b)"; print "OUTPUT(g0)"
  for (i = 0; i < n - 1; i++) printf "g%d = AND(g%d, a)\n", i, i + 1
  printf "g%d = NOT(b)\n", n - 1
}' > "$tmpdir/chain.bench"
timeout 30 _build/default/bin/diam_tool.exe "$tmpdir/chain.bench" \
  --pipeline com-ret-com > "$tmpdir/chain.out" \
  || { echo "ci: COM,RET,COM on a 20k chain (FAIL)"; exit 1; }
grep -q "^targets below cutoff 50: 1/1" "$tmpdir/chain.out" \
  || { cat "$tmpdir/chain.out"; echo "ci: 20k chain not bounded (FAIL)"; exit 1; }
echo "ci: COM on a 20k chain ok"

# Smoke-test the resource governance end to end: a 1-second deadline
# on a real design must come back promptly with a definite verdict
# (0/1) or an explicit inconclusive (3) — anything else is a bug.
rc=0
timeout 60 dune exec bin/verify_tool.exe -- examples/ring5.bench --timeout 1 \
  || rc=$?
case "$rc" in
  0|1|3) echo "ci: verify smoke exit $rc (ok)" ;;
  *) echo "ci: verify smoke exit $rc (FAIL)"; exit 1 ;;
esac

# Fault-injection smoke: with a fixed seed, the chaos suite injects
# faults at the solver/BMC/engine reporting boundaries and asserts
# every one is caught by certification (downgraded, never reported
# as a wrong verdict).  A fixed seed keeps the stage deterministic.
DIAMBOUND_CHAOS_SEED=1234 timeout 300 dune exec test/test_main.exe -- test chaos

# Certified-counterexample smoke: a known-violated design under
# --certify must still report the violation (exit 1) — i.e. the
# certification path accepts genuine answers and only withholds
# corrupted ones.
rc=0
timeout 60 dune exec bin/bmc_tool.exe -- examples/counter3.bench --certify \
  || rc=$?
case "$rc" in
  1) echo "ci: certified bmc smoke exit $rc (ok)" ;;
  *) echo "ci: certified bmc smoke exit $rc (FAIL)"; exit 1 ;;
esac

rc=0
timeout 60 dune exec bin/verify_tool.exe -- examples/counter3.bench --certify \
  || rc=$?
case "$rc" in
  1) echo "ci: certified verify smoke exit $rc (ok)" ;;
  *) echo "ci: certified verify smoke exit $rc (FAIL)"; exit 1 ;;
esac

# Trace smoke: a traced BMC run must leave a parseable trace carrying
# per-depth solver spans, and trace-report must digest it.  Either
# definite verdict (0/1) is fine — the stage tests the trace, not the
# verdict.
rc=0
timeout 60 dune exec bin/bmc_tool.exe -- examples/counter3.bench \
  --trace "$tmpdir/bmc.trace.json" || rc=$?
case "$rc" in
  0|1) ;;
  *) echo "ci: traced bmc run exit $rc (FAIL)"; exit 1 ;;
esac
report=$(timeout 60 dune exec bin/diam_tool.exe -- trace-report \
  "$tmpdir/bmc.trace.json")
echo "$report" | grep -q "bmc.depth" \
  || { echo "ci: trace has no bmc.depth spans (FAIL)"; exit 1; }
echo "$report" | grep -q "per-depth BMC cost" \
  || { echo "ci: trace-report lost the depth table (FAIL)"; exit 1; }
echo "ci: trace smoke ok"

# JSONL exporter + env-var activation smoke, through a different tool.
DIAMBOUND_TRACE="$tmpdir/diam.trace.jsonl" timeout 60 \
  dune exec bin/diam_tool.exe -- examples/ring5.bench > /dev/null
timeout 60 dune exec bin/diam_tool.exe -- trace-report \
  "$tmpdir/diam.trace.jsonl" > /dev/null \
  || { echo "ci: jsonl trace unreadable (FAIL)"; exit 1; }
echo "ci: jsonl trace smoke ok"

# Parallel and race determinism: --jobs 2 must produce byte-identical
# verdicts, exit codes and certified proofs to --jobs 1 on every
# example design, for the reference backend and for the full
# (strategy x backend) race grid — targets run in parallel, but each
# target's ladder selects by rank and verdicts and proofs come back in
# target order, never in wall-clock order.
# Both runs write their proofs under one prefix, so the printed proof
# paths match; each run's files are then set aside for a byte compare.
for backend in reference race; do
  for f in examples/*.bench; do
    for j in 1 2; do
      rm -rf "$tmpdir/proof" "$tmpdir/proofs$j"
      mkdir "$tmpdir/proof"
      rc=0
      timeout 300 dune exec bin/verify_tool.exe -- "$f" --backend "$backend" \
        --jobs "$j" --certify --proof "$tmpdir/proof/p" \
        > "$tmpdir/j$j.out" || rc=$?
      echo "exit $rc" >> "$tmpdir/j$j.out"
      mv "$tmpdir/proof" "$tmpdir/proofs$j"
    done
    diff -u "$tmpdir/j1.out" "$tmpdir/j2.out" \
      || { echo "ci: $f $backend verdicts differ across --jobs (FAIL)"; exit 1; }
    diff -r "$tmpdir/proofs1" "$tmpdir/proofs2" > /dev/null \
      || { echo "ci: $f $backend proofs differ across --jobs (FAIL)"; exit 1; }
  done
done
echo "ci: parallel and race determinism ok"

# Backend matrix: every backend must tell the same story on the
# example designs.  The external backend (wired to our own diam sat,
# which speaks the SAT-competition protocol) always concludes, so its
# output must be byte-identical to the reference backend's; the BDD
# oracle concludes on small cones (byte-identical there) and may only
# ever degrade with a structured bdd-node-limit stand-down elsewhere
# — never a conflicting verdict, never a crash.
diam_exe=_build/default/bin/diam_tool.exe
for f in examples/*.bench; do
  rc_ref=0; rc_ext=0; rc_bdd=0
  timeout 120 dune exec bin/verify_tool.exe -- "$f" \
    > "$tmpdir/ref.out" || rc_ref=$?
  DIAMBOUND_EXT_SOLVER="$diam_exe sat" timeout 300 dune exec \
    bin/verify_tool.exe -- "$f" --backend ext > "$tmpdir/ext.out" || rc_ext=$?
  [ "$rc_ref" = "$rc_ext" ] \
    || { echo "ci: $f exit differs under ext backend (FAIL)"; exit 1; }
  diff -u "$tmpdir/ref.out" "$tmpdir/ext.out" \
    || { echo "ci: $f verdicts differ under ext backend (FAIL)"; exit 1; }
  timeout 300 dune exec bin/verify_tool.exe -- "$f" --backend bdd \
    > "$tmpdir/bdd.out" || rc_bdd=$?
  case "$rc_bdd" in
    0|1|3) ;;
    *) echo "ci: $f crashed under bdd backend (exit $rc_bdd) (FAIL)"; exit 1 ;;
  esac
  if ! diff -q "$tmpdir/ref.out" "$tmpdir/bdd.out" > /dev/null; then
    grep -q "bdd-node-limit" "$tmpdir/bdd.out" \
      || { echo "ci: $f bdd divergence without node-limit reason (FAIL)"; \
           exit 1; }
  fi
done
# Race arm: the race grid is ranked backend-major, so wherever the
# reference ladder concludes (exit 0/1) the two-worker race must print
# the reference run's bytes and exit with its code; elsewhere the bdd
# fallback may conclude or stand down, but never crash.
for f in examples/*.bench test/repros/*.bench; do
  rc_ref=0; rc_race=0
  timeout 120 dune exec bin/verify_tool.exe -- "$f" --certify \
    > "$tmpdir/ref.out" || rc_ref=$?
  timeout 300 dune exec bin/verify_tool.exe -- "$f" --backend race \
    --jobs 2 --certify > "$tmpdir/race.out" || rc_race=$?
  case "$rc_ref" in
    0|1)
      [ "$rc_ref" = "$rc_race" ] \
        || { echo "ci: $f exit differs under race backend (FAIL)"; exit 1; }
      diff -u "$tmpdir/ref.out" "$tmpdir/race.out" \
        || { echo "ci: $f verdicts differ under race backend (FAIL)"; exit 1; }
      ;;
    *)
      case "$rc_race" in
        0|1|3) ;;
        *) echo "ci: $f crashed under race backend (exit $rc_race) (FAIL)"
           exit 1 ;;
      esac
      ;;
  esac
done
echo "ci: backend matrix ok"

# Missing-binary smoke: the ext backend pointed at a binary that does
# not exist must degrade to structured backend-unavailable unknowns
# and an explicit inconclusive exit (3) — never a crash, never a
# verdict.
rc=0
DIAMBOUND_EXT_SOLVER=/nonexistent/diambound-ext-solver timeout 60 \
  dune exec bin/verify_tool.exe -- examples/counter3.bench --backend ext \
  > "$tmpdir/noext.out" || rc=$?
[ "$rc" = 3 ] \
  || { echo "ci: missing ext binary exit $rc, want 3 (FAIL)"; exit 1; }
grep -q "backend-unavailable" "$tmpdir/noext.out" \
  || { echo "ci: missing ext binary reason unstructured (FAIL)"; exit 1; }
echo "ci: ext missing-binary smoke ok"

# Corpus determinism: the corpus walk over examples/ must be
# byte-identical (stdout is timing-free by design) and report the
# same exit code for --jobs 1 and --jobs 2.  Any of the contract's
# exit codes (0 all-ok / 1 finding / 3 inconclusive-only) is fine —
# the stage tests determinism, not the verdicts.  The walk's work
# counts are gated exactly by the test/counts snapshot in dune runtest.
# Both runs write their stats to one path, so the "written to" line
# on stdout matches; the per-layer stage below reads the second.
rc1=0; rc2=0
timeout 300 dune exec bin/diam_tool.exe -- corpus examples/ --jobs 1 \
  --stats-json "$tmpdir/corpus.json" > "$tmpdir/corpus1.out" || rc1=$?
timeout 300 dune exec bin/diam_tool.exe -- corpus examples/ --jobs 2 \
  --stats-json "$tmpdir/corpus.json" > "$tmpdir/corpus2.out" || rc2=$?
case "$rc1" in
  0|1|3) ;;
  *) echo "ci: corpus walk exit $rc1 (FAIL)"; exit 1 ;;
esac
[ "$rc1" = "$rc2" ] \
  || { echo "ci: corpus exit codes differ across --jobs (FAIL)"; exit 1; }
diff -u "$tmpdir/corpus1.out" "$tmpdir/corpus2.out" \
  || { echo "ci: corpus reports differ across --jobs (FAIL)"; exit 1; }
grep -q '"corpus.files"' "$tmpdir/corpus.json" \
  || { echo "ci: corpus tallies missing from snapshot (FAIL)"; exit 1; }
echo "ci: corpus determinism ok"

# One aggregate row per layer: per-depth BMC and per-file corpus detail
# rides on trace attributes, never in span names, so neither a verify
# run nor the corpus walk may mint a row per instance.
rc=0
timeout 60 dune exec bin/verify_tool.exe -- examples/ring5.bench \
  --stats-json "$tmpdir/ring5.json" > /dev/null || rc=$?
case "$rc" in
  0|1) ;;
  *) echo "ci: ring5 stats run exit $rc (FAIL)"; exit 1 ;;
esac
for snap in "$tmpdir/ring5.json" "$tmpdir/corpus.json"; do
  grep -qE '"(bmc\.solve\.depth|corpus\.file\.)' "$snap" \
    && { echo "ci: per-instance span rows in $snap (FAIL)"; exit 1; }
done
echo "ci: per-layer span rows ok"

# One classification per report: a pipeline classifies its final
# netlist once, inside bound.all_targets, and takes its register-class
# counts from that same analysis — a second classify.analyze call is
# the whole-netlist analysis done twice.
for f in examples/*.bench; do
  for p in original com com-ret-com; do
    timeout 60 dune exec bin/diam_tool.exe -- "$f" --pipeline "$p" \
      --stats-json "$tmpdir/classify.json" > /dev/null \
      || { echo "ci: $f --pipeline $p failed (FAIL)"; exit 1; }
    calls=$(grep -oE '"classify\.analyze": *\{"calls": *[0-9]+' \
      "$tmpdir/classify.json" | grep -oE '[0-9]+$' || true)
    [ "$calls" = 1 ] \
      || { echo "ci: $f --pipeline $p classified ${calls:-0} times, want 1 (FAIL)"; \
           exit 1; }
  done
done
echo "ci: one analysis per report ok"

# Fuzz smoke: a fixed-seed campaign on a healthy build must report
# zero findings — each design runs through the differential oracle
# matrix (ladder / no-inprocessing / portfolio / expired budget), so
# a single finding here is a real engine bug, and the campaign exits 1.
timeout 600 dune exec bin/diam_tool.exe -- fuzz --count 20 --seed 1 \
  > "$tmpdir/fuzz.out" \
  || { cat "$tmpdir/fuzz.out"; echo "ci: fuzz campaign found bugs (FAIL)"; exit 1; }
grep -q "fuzz: 20 cases, 0 findings" "$tmpdir/fuzz.out" \
  || { cat "$tmpdir/fuzz.out"; echo "ci: fuzz summary malformed (FAIL)"; exit 1; }
echo "ci: fuzz smoke ok"

# Repro replay: minimal netlists shrunk from past chaos findings are
# committed under test/repros/; every one must still parse and verify
# without a crash (the walk itself is the assertion — a malformed or
# crashed tally is a finding and a different exit).
rc=0
timeout 300 dune exec bin/diam_tool.exe -- corpus test/repros/ \
  > "$tmpdir/repros.out" || rc=$?
case "$rc" in
  0|1) ;;
  *) cat "$tmpdir/repros.out"; echo "ci: repro replay exit $rc (FAIL)"; exit 1 ;;
esac
grep -qE "0 malformed, 0 crashed" "$tmpdir/repros.out" \
  || { cat "$tmpdir/repros.out"; echo "ci: repros degraded (FAIL)"; exit 1; }
echo "ci: repro replay ok"

# Chaos drill: with a seeded solver fault armed, the campaign must
# find it (findings > 0), shrink every finding to at most half the
# breeding design, and write repros that replay cleanly — one drill
# per fault class, inside the campaign test suite.
DIAMBOUND_CHAOS_SEED=1234 timeout 600 \
  dune exec test/test_main.exe -- test campaign

# Serve drill: a chaos-armed JSONL session over a mixed 100+-request
# corpus — valid verifies, duplicates, malformed lines, budget-starved
# and fault-injected requests.  The server must answer every request
# exactly once (structured errors, never a crash), exit 0, serve the
# drained duplicate as a cache hit, and produce byte-identical output
# for --jobs 1 and --jobs 2.  With chaos armed every cache hit is
# differentially replayed, so poisoned_purged = 0 doubles as the
# cache-coherence audit: no served entry disagreed with a fresh run.
serve_corpus() {
  # a deterministic duplicate pair for the cache-hit contract
  echo '{"id":"dup","op":"verify","netlist_file":"examples/ring5.bench","target":"two_hot"}'
  echo '{"op":"drain"}'
  echo '{"id":"dup","op":"verify","netlist_file":"examples/ring5.bench","target":"two_hot"}'
  echo '{"op":"drain"}'
  for round in 1 2 3 4 5 6 7 8; do
    echo "{\"id\":\"r$round:ring5:two_hot\",\"op\":\"verify\",\"netlist_file\":\"examples/ring5.bench\",\"target\":\"two_hot\"}"
    echo "{\"id\":\"r$round:ring5:at_last\",\"op\":\"verify\",\"netlist_file\":\"examples/ring5.bench\",\"target\":\"at_last\"}"
    echo "{\"id\":\"r$round:counter3\",\"op\":\"verify\",\"netlist_file\":\"examples/counter3.bench\"}"
    for f in test/repros/*.bench; do
      # every cone inside a round must be distinct, or the cache
      # hit/miss field races across concurrent workers and the
      # --jobs 1 vs 2 diff below turns flaky — skip the repro files
      # whose shrunk netlists duplicate another's cone
      case "$f" in
      *0000-deep-cex* | *0001-wide-memory-t0-disagreement*) continue ;;
      esac
      echo "{\"id\":\"r$round:$f\",\"op\":\"verify\",\"netlist_file\":\"$f\"}"
    done
    echo '{oops'
    echo '{"op":"dance"}'
    echo '{"id":"nonet","op":"verify"}'
    echo '{"id":"multi","op":"verify","netlist_file":"examples/ring5.bench"}'
    # a unique inline cone nothing else caches: "budget-exhausted"
    # responses are never cached, so every round misses afresh
    echo "{\"id\":\"starved$round\",\"op\":\"verify\",\"netlist\":\"a = DFF(na, 0)\\nb = DFF(a, 0)\\nna = NOT(b)\\nstarved = AND(a, b)\\nOUTPUT(starved)\",\"timeout_ms\":0}"
    echo "{\"id\":\"chaos$round\",\"op\":\"verify\",\"netlist_file\":\"examples/counter3.bench\",\"chaos\":\"flip-to-unsat\"}"
    echo "{\"id\":\"crash$round\",\"op\":\"verify\",\"netlist_file\":\"examples/ring5.bench\",\"target\":\"at_last\",\"chaos\":\"crash\"}"
    echo '{"op":"drain"}'
  done
}
serve_corpus > "$tmpdir/serve.jsonl"
req=$(wc -l < "$tmpdir/serve.jsonl")
[ "$req" -ge 100 ] || { echo "ci: serve corpus too small ($req)"; exit 1; }
for jobs in 1 2; do
  DIAMBOUND_CHAOS_SEED=1234 timeout 600 dune exec bin/diam_tool.exe -- serve \
    --jobs "$jobs" --stats-json "$tmpdir/serve$jobs.json" \
    < "$tmpdir/serve.jsonl" > "$tmpdir/serve$jobs.out" \
    || { echo "ci: serve drill (--jobs $jobs) crashed (FAIL)"; exit 1; }
  resp=$(wc -l < "$tmpdir/serve$jobs.out")
  [ "$req" = "$resp" ] \
    || { echo "ci: serve answered $resp of $req requests (FAIL)"; exit 1; }
done
diff -u "$tmpdir/serve1.out" "$tmpdir/serve2.out" \
  || { echo "ci: serve responses differ across --jobs (FAIL)"; exit 1; }
grep '"id":"crash1"' "$tmpdir/serve1.out" | grep -q '"error":"internal"' \
  || { echo "ci: injected crash not a structured error (FAIL)"; exit 1; }
grep '"id":"starved1"' "$tmpdir/serve1.out" | grep -q 'budget-exhausted' \
  || { echo "ci: starved request did not degrade (FAIL)"; exit 1; }
grep '"id":"dup"' "$tmpdir/serve1.out" | sed -n 1p \
  | grep -q '"cache":"miss"' \
  || { echo "ci: first dup not a miss (FAIL)"; exit 1; }
grep '"id":"dup"' "$tmpdir/serve1.out" | sed -n 2p \
  | grep -q '"cache":"hit"' \
  || { echo "ci: drained duplicate not a cache hit (FAIL)"; exit 1; }
[ "$(grep '"id":"dup"' "$tmpdir/serve1.out" | sed 's/"cache":"[a-z]*"//' \
     | sort -u | wc -l)" = 1 ] \
  || { echo "ci: dup responses differ beyond the cache field (FAIL)"; exit 1; }
grep -q '"serve.cache.poisoned_purged": *0' "$tmpdir/serve1.json" \
  || { echo "ci: differential replay purged entries (FAIL)"; exit 1; }
grep -q '"serve.cache.hits": *[1-9]' "$tmpdir/serve1.json" \
  || { echo "ci: serve cache never hit (FAIL)"; exit 1; }
echo "ci: serve drill ok"

# Socket path guard: diam serve --socket replaces only a stale socket.
# A regular file at the path is a usage mistake: the server must exit
# 2 and leave the file byte-identical.
printf 'not a socket\n' > "$tmpdir/not-a-socket.txt"
cp "$tmpdir/not-a-socket.txt" "$tmpdir/not-a-socket.orig"
rc=0
timeout 60 dune exec bin/diam_tool.exe -- serve \
  --socket "$tmpdir/not-a-socket.txt" 2> "$tmpdir/socket.err" || rc=$?
[ "$rc" = 2 ] \
  || { echo "ci: serve --socket on a regular file exit $rc, want 2 (FAIL)"; exit 1; }
grep -q "cannot listen" "$tmpdir/socket.err" \
  || { echo "ci: serve --socket on a regular file gave no reason (FAIL)"; exit 1; }
cmp -s "$tmpdir/not-a-socket.txt" "$tmpdir/not-a-socket.orig" \
  || { echo "ci: serve --socket changed a regular file (FAIL)"; exit 1; }
echo "ci: socket path guard ok"

# Batch determinism: diam batch runs every (netlist, target) pair
# through the serve request path and its verdict cache.  Its verdict
# lines must not depend on --jobs once attempt timings are stripped,
# and it exits 1 because counter3 and ring5 have violated targets.
# The same cone twice must be answered from the one cached verdict per
# target: two hits, two entries (a certified verdict is all the cache
# ever holds).
for jobs in 1 2; do
  rc=0
  timeout 300 dune exec bin/diam_tool.exe -- batch examples/*.bench \
    test/repros/*.bench --certify --jobs "$jobs" \
    > "$tmpdir/batch$jobs.out" || rc=$?
  [ "$rc" = 1 ] \
    || { cat "$tmpdir/batch$jobs.out"; echo "ci: batch --jobs $jobs exit $rc, want 1 (FAIL)"; exit 1; }
  sed -E 's/\([0-9.]+ms\)//g' "$tmpdir/batch$jobs.out" > "$tmpdir/batch$jobs.lines"
done
diff -u "$tmpdir/batch1.lines" "$tmpdir/batch2.lines" \
  || { echo "ci: batch verdict lines differ across --jobs (FAIL)"; exit 1; }
rc=0
timeout 120 dune exec bin/diam_tool.exe -- batch examples/ring5.bench \
  examples/ring5.bench --certify --stats-json "$tmpdir/batch.json" \
  > /dev/null || rc=$?
[ "$rc" = 1 ] || { echo "ci: repeated ring5 batch exit $rc, want 1 (FAIL)"; exit 1; }
grep -q '"serve.cache.hits": *2[,}]' "$tmpdir/batch.json" \
  || { echo "ci: repeated ring5 batch did not hit twice (FAIL)"; exit 1; }
grep -q '"serve.cache.entries": *2[,}]' "$tmpdir/batch.json" \
  || { echo "ci: repeated ring5 batch did not leave 2 entries (FAIL)"; exit 1; }
echo "ci: batch determinism ok"

# Serve saturation: one worker, a one-slot queue, chaos armed.  A
# poisoned worker must be respawned (restarts >= 1), a stalled worker
# must force load-shedding (shed >= 1, overloaded response), and the
# whole drill must be byte-deterministic across runs.
sat_corpus() {
  echo '{"id":"po","op":"poison"}'
  echo '{"op":"drain"}'
  echo '{"id":"st","op":"stall"}'
  echo '{"id":"a","op":"verify","netlist_file":"examples/ring5.bench","target":"two_hot"}'
  echo '{"id":"b","op":"verify","netlist_file":"examples/counter3.bench"}'
  echo '{"op":"drain"}'
  echo '{"id":"after","op":"verify","netlist_file":"examples/counter3.bench"}'
}
sat_corpus > "$tmpdir/sat.jsonl"
for run in 1 2; do
  DIAMBOUND_CHAOS_SEED=1234 timeout 300 dune exec bin/diam_tool.exe -- serve \
    --jobs 1 --queue-limit 1 --stats-json "$tmpdir/sat$run.json" \
    < "$tmpdir/sat.jsonl" > "$tmpdir/sat$run.out" \
    || { echo "ci: serve saturation run $run crashed (FAIL)"; exit 1; }
done
diff -u "$tmpdir/sat1.out" "$tmpdir/sat2.out" \
  || { echo "ci: saturation drill not deterministic (FAIL)"; exit 1; }
grep '"id":"b"' "$tmpdir/sat1.out" | grep -q '"error":"overloaded"' \
  || { echo "ci: saturated queue did not shed (FAIL)"; exit 1; }
grep '"id":"after"' "$tmpdir/sat1.out" | grep -q '"verdict"' \
  || { echo "ci: server dead after poison+stall (FAIL)"; exit 1; }
grep -q '"serve.worker.restarts": *[1-9]' "$tmpdir/sat1.json" \
  || { echo "ci: poisoned worker never restarted (FAIL)"; exit 1; }
grep -q '"serve.shed": *[1-9]' "$tmpdir/sat1.json" \
  || { echo "ci: shed counter missing (FAIL)"; exit 1; }
echo "ci: serve saturation ok"

# Telemetry smoke: arm the watchdog and park a worker with the chaos
# stall op while wall time elapses (the sleep happens between request
# lines, so the parked worker's heartbeat goes idle past the window).
# The monitor must dump a flight recording (watchdog.dumps >= 1) that
# trace-report can read back grouped by correlation id, the warn line
# must carry the parked request's corr, and — with logging at its
# noisiest — stdout must stay byte-identical across --jobs values
# (queue-limit 64 so no shed outcome can differ either).
tel_corpus() {
  echo '{"id":"st","op":"stall"}'
  sleep 1
  echo '{"op":"drain"}'
  echo '{"id":"v1","op":"verify","netlist_file":"examples/counter3.bench"}'
  echo '{"id":"v2","op":"verify","netlist_file":"examples/ring5.bench","target":"two_hot"}'
}
for jobs in 1 2; do
  tel_corpus | timeout 300 dune exec bin/diam_tool.exe -- serve \
    --jobs "$jobs" --queue-limit 64 --stall-window 0.3 \
    --flight-recorder "$tmpdir/flight$jobs.jsonl" \
    --log-level debug --log "$tmpdir/telemetry$jobs.log" \
    --stats-json "$tmpdir/telemetry$jobs.json" \
    > "$tmpdir/telemetry$jobs.out" \
    || { echo "ci: telemetry drill (--jobs $jobs) crashed (FAIL)"; exit 1; }
done
diff -u "$tmpdir/telemetry1.out" "$tmpdir/telemetry2.out" \
  || { echo "ci: responses differ across --jobs with logging on (FAIL)"; exit 1; }
grep -q '"watchdog.dumps": *[1-9]' "$tmpdir/telemetry1.json" \
  || { echo "ci: watchdog never dumped a flight (FAIL)"; exit 1; }
grep '"event":"watchdog.stall"' "$tmpdir/telemetry1.log" \
  | grep -q '"corr":"req-0"' \
  || { echo "ci: stall warn missing its correlation id (FAIL)"; exit 1; }
timeout 60 dune exec bin/diam_tool.exe -- trace-report \
  "$tmpdir/flight1.jsonl" > "$tmpdir/flight.report" \
  || { echo "ci: flight recording unreadable (FAIL)"; exit 1; }
grep -q "req-0" "$tmpdir/flight.report" \
  || { echo "ci: flight report lost the stalled request (FAIL)"; exit 1; }
# the metrics op, separately: its exposition text is time-dependent,
# so it stays out of the byte-diff corpus above
echo '{"id":"m","op":"metrics"}' | timeout 60 dune exec bin/diam_tool.exe -- \
  serve > "$tmpdir/metrics.out" \
  || { echo "ci: metrics op crashed (FAIL)"; exit 1; }
grep -q '# TYPE diambound_' "$tmpdir/metrics.out" \
  || { echo "ci: metrics op exposition malformed (FAIL)"; exit 1; }
echo "ci: telemetry smoke ok"

# One transformation pass per design: on the 37-target latch-based
# v_cach, diam-verify runs the phase front, COM and COM,RET,COM at most
# once each for all its targets, and diam-verify and bmc-check print
# the same verdict lines at --jobs 1 and 2 (attempt timings and the
# stats-file notice stripped).
timeout 60 dune exec bin/gen_tool.exe -- --design V_CACH \
  -o "$tmpdir/v_cach.bench" > /dev/null
for jobs in 1 2; do
  for tool in verify bmc; do
    rc=0
    timeout 120 dune exec "bin/${tool}_tool.exe" -- "$tmpdir/v_cach.bench" \
      --jobs "$jobs" --stats-json "$tmpdir/v_cach.$tool$jobs.json" \
      > "$tmpdir/v_cach.$tool$jobs.raw" || rc=$?
    case "$rc" in
      0|1|3) ;;
      *) echo "ci: $tool on v_cach --jobs $jobs exit $rc (FAIL)"; exit 1 ;;
    esac
    sed -E -e 's/ \([0-9.]+ms\)$//' -e '/^stats: /d' \
      "$tmpdir/v_cach.$tool$jobs.raw" > "$tmpdir/v_cach.$tool$jobs.out"
  done
done
for tool in verify bmc; do
  diff -u "$tmpdir/v_cach.${tool}1.out" "$tmpdir/v_cach.${tool}2.out" \
    || { echo "ci: $tool output differs across --jobs (FAIL)"; exit 1; }
done
python3 - "$tmpdir/v_cach.verify1.json" <<'PY' \
  || { echo "ci: a pipeline ran more than once per design (FAIL)"; exit 1; }
import json, sys
spans = json.load(open(sys.argv[1]))["spans"]
for name in ("pipeline.phase", "pipeline.com", "pipeline.com-ret-com"):
    calls = spans.get(name, {}).get("calls", 0)
    print(f"ci: {name} ran {calls}x")
    assert calls <= 1
PY
echo "ci: one pass per design ok"

# Inprocessing changes solver work, never a verdict: diam-verify must
# print the same verdict lines (attempt timings stripped) and exit with
# the same code with and without --no-inprocess, on every example
# design and on the generated v_cach and d_dcla.
timeout 60 dune exec bin/gen_tool.exe -- --design D_DCLA \
  -o "$tmpdir/d_dcla.bench" > /dev/null
for f in examples/*.bench "$tmpdir/v_cach.bench" "$tmpdir/d_dcla.bench"; do
  for mode in on off; do
    flag=""
    [ "$mode" = off ] && flag=--no-inprocess
    rc=0
    timeout 300 dune exec bin/verify_tool.exe -- "$f" $flag \
      > "$tmpdir/inproc.$mode.raw" || rc=$?
    case "$rc" in
      0|1|3) ;;
      *) echo "ci: $f inprocessing $mode exit $rc (FAIL)"; exit 1 ;;
    esac
    sed -E 's/ \([0-9.]+ms\)$//' "$tmpdir/inproc.$mode.raw" \
      > "$tmpdir/inproc.$mode.out"
    echo "exit $rc" >> "$tmpdir/inproc.$mode.out"
  done
  diff -u "$tmpdir/inproc.on.out" "$tmpdir/inproc.off.out" \
    || { echo "ci: $f verdicts differ with --no-inprocess (FAIL)"; exit 1; }
done
echo "ci: inprocessing on/off verdicts ok"

# Bench smoke: the paper-reproduction harness still runs; its cheapest
# experiment, the B1 recurrence-diameter comparison, prints its table.
timeout 300 dune exec bench/main.exe -- baseline > "$tmpdir/bench.out" \
  || { cat "$tmpdir/bench.out"; echo "ci: bench baseline run failed (FAIL)"; exit 1; }
grep -q "structural bound \[7\] vs recurrence diameter" "$tmpdir/bench.out" \
  || { cat "$tmpdir/bench.out"; echo "ci: bench B1 table missing (FAIL)"; exit 1; }
grep -q "^lfsr4 " "$tmpdir/bench.out" \
  || { cat "$tmpdir/bench.out"; echo "ci: bench B1 table incomplete (FAIL)"; exit 1; }
echo "ci: bench smoke ok"

echo "ci: all green"
