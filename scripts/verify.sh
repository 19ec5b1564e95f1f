#!/usr/bin/env bash
# Full offline verification: build (the stage-profile build and rustdoc
# with warnings denied included), test, regenerate the committed goldens
# (differential audit, fig4, table1, recovery_ablation, RISC-V runs,
# campaigns) and require them byte for byte, drive the kill/resume,
# process-fleet, server, fsck and chaos legs, check the parallel engine's
# determinism contract by regenerating fig4 at several worker counts, and
# finish with the wall-clock simulator-throughput gate.
#
# Usage: scripts/verify.sh [--skip-sweep]
#   --skip-sweep   skip the fig4 worker-count sweep (it re-simulates fig4
#                  three times at --quick length, ~1 min on one core); the
#                  throughput gate still runs

set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_SWEEP=0
[[ "${1:-}" == "--skip-sweep" ]] && SKIP_SWEEP=1

echo "==> cargo build --release --workspace (offline)"
cargo build --release --workspace --offline

echo "==> cargo check: the stage-profile build"
# The `timed_stage!` probes compile to nothing by default; this builds
# them, so a change to a profiled stage cannot leave the profiler broken.
cargo check --release --offline -p tv-bench --features stage-profile

echo "==> cargo doc: rustdoc with warnings denied"
# Dangling or private intra-doc links fail here, so a deleted item
# cannot leave docs pointing at it.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo test -q --workspace"
cargo test -q --workspace --offline

echo "==> scheme-equivalence differential audit, byte-identical to the golden"
# The full default sweep (2 benchmarks x 2 voltages x 2 seeds x 6
# schemes, Full audit, one co-sim bundle per tuple) on one worker: every
# scheme must commit the identical stream with zero invariant violations
# (the bin's exit status), and the CSV must equal the committed one.
tmp_audit="$(mktemp -d)"
cargo run --release -q -p tv-bench --bin audit_diff --offline -- \
    --workers 1 --out "$tmp_audit" 2>/dev/null
cmp "$tmp_audit/audit_diff.csv" bench_results/audit_diff.csv
echo "    audit_diff.csv byte-identical to the committed golden"
rm -rf "$tmp_audit"

echo "==> exact golden: fig4 at the committed length, byte-identical"
# tests/golden.rs re-derives sampled rows within tolerances; this leg
# regenerates the whole of fig4 at the length it was committed at
# (300k commits, 100k warm-up, seed 42) on one worker and requires the
# committed CSV byte for byte.
tmp_golden="$(mktemp -d)"
cargo run --release -q -p tv-bench --bin fig4 --offline -- \
    --commits 300000 --warmup 100000 --seed 42 --workers 1 \
    --out "$tmp_golden" >/dev/null 2>&1
cmp "$tmp_golden/fig4.csv" bench_results/fig4.csv
echo "    fig4.csv byte-identical to the committed golden"

echo "==> exact golden: table1 at the committed length, byte-identical"
# Table 1's bag holds both voltages of every benchmark: each stream's
# program and calibration walk are shared by jobs whose fault models
# differ. Same length, seed and single worker as the fig4 leg.
cargo run --release -q -p tv-bench --bin table1 --offline -- \
    --commits 300000 --warmup 100000 --seed 42 --workers 1 \
    --out "$tmp_golden" >/dev/null 2>&1
cmp "$tmp_golden/table1.csv" bench_results/table1.csv
echo "    table1.csv byte-identical to the committed golden"

echo "==> exact golden: recovery_ablation at the committed length, byte-identical"
# The only committed golden whose runs squash and refetch (its flush
# column), so the only one that exercises the squash path end to end.
cargo run --release -q -p tv-bench --bin recovery_ablation --offline -- \
    --commits 300000 --warmup 100000 --seed 42 --workers 1 \
    --out "$tmp_golden" >/dev/null 2>&1
cmp "$tmp_golden/recovery_ablation.csv" bench_results/recovery_ablation.csv
echo "    recovery_ablation.csv byte-identical to the committed golden"
rm -rf "$tmp_golden"

echo "==> RISC-V differential + hazard regression tests"
# Every shipped program: pipeline-vs-executor end-state identity under
# all schemes with faults injected, pinned hazard end states, assembler
# round-trip and rejection tests.
cargo test -q --offline --test riscv_diff

echo "==> RISC-V real-program run (all built-ins x 6 schemes, oracle on)"
# The riscv harness exits non-zero on any oracle corruption or
# end-state divergence. Columns 1-11 must equal the committed CSV;
# column 12 (kcommits_per_sec) is wall clock and varies run to run.
tmp_riscv="$(mktemp -d)"
cargo run --release -q -p tv-bench --bin riscv --offline -- \
    --out "$tmp_riscv" >/dev/null
cmp <(cut -d, -f1-11 "$tmp_riscv/riscv.csv") <(cut -d, -f1-11 bench_results/riscv.csv)
echo "    riscv.csv columns 1-11 byte-identical to the committed golden"
rm -rf "$tmp_riscv"

echo "==> RISC-V real-program simspeed spot-check (~30s budget)"
# Sanity-check that real programs sustain reasonable simulation
# throughput: run the largest built-in through every scheme and require
# > 20k commits/s per cell (an order of magnitude below typical).
tmp_spot="$(mktemp -d)"
start_s=$SECONDS
cargo run --release -q -p tv-bench --bin riscv --offline -- \
    --workload riscv:checksum --out "$tmp_spot" >/dev/null
elapsed=$(( SECONDS - start_s ))
if (( elapsed > 30 )); then
    echo "    FAIL: checksum x 6 schemes took ${elapsed}s (> 30s budget)" >&2
    exit 1
fi
awk -F, 'NR > 1 && $12 + 0 < 20 { bad = 1; print "    FAIL: slow cell: " $0 }
         END { exit bad }' "$tmp_spot/riscv.csv"
rm -rf "$tmp_spot"
echo "    checksum x 6 schemes in ${elapsed}s, every cell > 20 kcommits/s"

echo "==> smoke fault-injection campaign (oracle on, all schemes + control)"
# Every real scheme must commit oracle-clean state under the stress fault
# models, and the oracle must catch the NoTolerance control corrupting
# state; the binary's exit status enforces both. The verdicts (RISC-V
# tuples included) must equal the committed golden byte for byte.
tmp_campaign="$(mktemp -d)"
cargo run --release -q -p tv-bench --bin campaign --offline -- \
    --smoke --out "$tmp_campaign" 2>/dev/null
cmp "$tmp_campaign/campaign.csv" bench_results/campaign_smoke.csv
echo "    campaign.csv byte-identical to the committed smoke golden"

echo "==> wedged lanes: --smoke --watchdog 250 fails with the golden verdicts"
# A 250-cycle commit watchdog wedges 47 of the 56 cells (7 clean, 2
# corrupt). Wedged lanes stop in place while their siblings finish, so
# each watchdog row (its dump included) is a solo run's. The campaign
# must fail (exit 1) and its CSV must equal the committed golden.
watchdog_status=0
./target/release/campaign --smoke --watchdog 250 \
    --out "$tmp_campaign/watchdog" >/dev/null 2>&1 || watchdog_status=$?
[[ "$watchdog_status" == 1 ]] \
    || { echo "FAIL: --watchdog 250 campaign exited $watchdog_status, want 1"; exit 1; }
cmp "$tmp_campaign/watchdog/campaign.csv" bench_results/campaign_watchdog.csv
echo "    watchdog campaign exited 1 with CSV byte-identical to the golden"

echo "==> campaign kill -9 + --resume determinism"
# SIGKILL the campaign binary mid-run (invoked directly, not via cargo,
# so the kill hits the simulator itself), resume the journal, and require
# the resumed CSV to be byte-identical to the uninterrupted run's.
./target/release/campaign \
    --smoke --out "$tmp_campaign/killed" >/dev/null 2>&1 &
campaign_pid=$!
sleep 0.2
kill -9 "$campaign_pid" 2>/dev/null || true
wait "$campaign_pid" 2>/dev/null || true
./target/release/campaign \
    --smoke --out "$tmp_campaign/killed" --resume >/dev/null 2>&1
cmp "$tmp_campaign/campaign.csv" "$tmp_campaign/killed/campaign.csv"
echo "    campaign.csv byte-identical after kill -9 + --resume"

echo "==> multi-process fleet: --procs 3 + worker kill -9 determinism"
# The same smoke campaign on the process fleet: three worker processes,
# one of which is kill -9'd for real while the run is in flight (workers
# are children of the coordinator, so pgrep -P finds one as soon as the
# fleet is up). The coordinator must detect the death, put the dead
# worker's job back at the front of the queue, and still finish with an
# exit-0 CSV that is byte-identical to the committed process-fleet
# golden.
./target/release/campaign \
    --smoke --procs 3 --out "$tmp_campaign/cluster" \
    >"$tmp_campaign/cluster.log" 2>&1 &
cluster_pid=$!
worker_pid=""
for _ in $(seq 200); do
    worker_pid="$(pgrep -P "$cluster_pid" 2>/dev/null | head -n1 || true)"
    [[ -n "$worker_pid" ]] && break
    sleep 0.02
done
[[ -n "$worker_pid" ]] || { echo "FAIL: no cluster worker process appeared"; exit 1; }
kill -9 "$worker_pid"
wait "$cluster_pid"
grep -q "died" "$tmp_campaign/cluster.log" \
    || { echo "FAIL: coordinator never reported the killed worker"; exit 1; }
cmp "$tmp_campaign/cluster/campaign.csv" bench_results/campaign_cluster.csv
echo "    campaign.csv byte-identical to the golden under --procs 3 with a worker kill -9"
rm -rf "$tmp_campaign"

echo "==> campaign server: dedup, byte-identity, crash resume, warm burst"
# The server's execute-once contract, end-to-end through the bins: the
# same spec submitted twice executes once (second response is a cache
# hit), the served CSV is byte-identical to the offline campaign binary
# with matching flags, a SIGKILLed server resumes its journal after
# restart, and a 1000-request warm burst re-simulates nothing.
tmp_serve="$(mktemp -d)"
serve_spec='{"tuples": 2, "riscv": 1, "seed": 77, "commits": 3000, "warmup": 1000}'
./target/release/serve --addr 127.0.0.1:0 --store "$tmp_serve/store" \
    --addr-file "$tmp_serve/addr" >"$tmp_serve/server.log" 2>&1 &
serve_pid=$!
for _ in $(seq 100); do [[ -s "$tmp_serve/addr" ]] && break; sleep 0.1; done
serve_addr="$(cat "$tmp_serve/addr")"
./target/release/loadgen --addr "$serve_addr" --spec "$serve_spec" \
    --requests 1 --clients 1 --expect-cache miss \
    --save-body "$tmp_serve/first.csv" --out "$tmp_serve/BENCH_cold.json" >/dev/null
./target/release/loadgen --addr "$serve_addr" --spec "$serve_spec" \
    --requests 1 --clients 1 --expect-cache hit \
    --save-body "$tmp_serve/second.csv" --out "$tmp_serve/BENCH_hit.json" >/dev/null
cmp "$tmp_serve/first.csv" "$tmp_serve/second.csv"
./target/release/campaign --tuples 2 --riscv 1 --seed 77 --commits 3000 \
    --warmup 1000 --out "$tmp_serve/offline" >/dev/null
cmp "$tmp_serve/first.csv" "$tmp_serve/offline/campaign.csv"
echo "    served CSV byte-identical across miss/hit and vs the offline campaign bin"
# kill -9 the server while a fresh spec is executing; the journal it
# leaves in the store resumes on a restarted server, and the final CSV
# still matches an uninterrupted offline run.
kill_spec='{"tuples": 4, "riscv": 1, "seed": 78, "commits": 6000, "warmup": 1000}'
./target/release/loadgen --addr "$serve_addr" --spec "$kill_spec" \
    --requests 1 --clients 1 --out "$tmp_serve/BENCH_killed.json" >/dev/null 2>&1 &
loadgen_pid=$!
sleep 0.5
kill -9 "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
wait "$loadgen_pid" 2>/dev/null || true
./target/release/serve --addr 127.0.0.1:0 --store "$tmp_serve/store" \
    --addr-file "$tmp_serve/addr2" >"$tmp_serve/server2.log" 2>&1 &
serve_pid=$!
for _ in $(seq 100); do [[ -s "$tmp_serve/addr2" ]] && break; sleep 0.1; done
serve_addr="$(cat "$tmp_serve/addr2")"
./target/release/loadgen --addr "$serve_addr" --spec "$kill_spec" \
    --requests 1 --clients 1 --save-body "$tmp_serve/resumed.csv" \
    --out "$tmp_serve/BENCH_resumed.json" >/dev/null
./target/release/campaign --tuples 4 --riscv 1 --seed 78 --commits 6000 \
    --warmup 1000 --out "$tmp_serve/offline2" >/dev/null
cmp "$tmp_serve/resumed.csv" "$tmp_serve/offline2/campaign.csv"
echo "    kill -9 mid-campaign + restart: resumed CSV byte-identical to offline"
# Warm burst: 1000 requests across 8 clients, every one a cache hit,
# zero campaign executions and zero cells simulated during the burst
# (loadgen checks the server's /stats deltas). The JSON lands in
# bench_results as an untracked artifact beside the committed
# BENCH_serve.json, which this run leaves as recorded.
mkdir -p bench_results
./target/release/loadgen --addr "$serve_addr" --spec "$serve_spec" \
    --requests 1000 --clients 8 --expect-cache hit --expect-warm \
    --out bench_results/BENCH_serve.latest.json
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true

echo "==> store fsck: injected corruption is detected and evicted"
# Flip one byte of a published store entry; `serve --fsck` must detect
# exactly that entry via its checksum sidecar, evict it (exit 1), and a
# second pass over the healed store must come back clean (exit 0).
store_csv="$(ls "$tmp_serve/store"/*.csv | head -n1)"
printf 'X' | dd of="$store_csv" bs=1 seek=12 conv=notrunc 2>/dev/null
if ./target/release/serve --fsck --store "$tmp_serve/store" \
        >"$tmp_serve/fsck1.json" 2>/dev/null; then
    echo "FAIL: fsck exited 0 over a corrupt store"; exit 1
fi
grep -q '"evicted":1' "$tmp_serve/fsck1.json" \
    || { echo "FAIL: fsck missed the corrupt entry:"; cat "$tmp_serve/fsck1.json"; exit 1; }
./target/release/serve --fsck --store "$tmp_serve/store" >"$tmp_serve/fsck2.json"
grep -q '"evicted":0' "$tmp_serve/fsck2.json" \
    || { echo "FAIL: store still dirty after eviction:"; cat "$tmp_serve/fsck2.json"; exit 1; }
echo "    fsck evicted the corrupted entry; healed store verifies clean"
rm -rf "$tmp_serve"

echo "==> chaos campaign: escalating fault profiles, CSV byte-identity enforced"
# The chaos bench bin runs the smoke campaign under every escalating
# fault profile (journal damage, worker kills/stalls/garbage frames, and
# both combined), self-heals via quarantine + resume, and exits non-zero
# unless every leg's CSV is byte-identical to the fault-free reference.
# The journal is written in tuple order whatever order bundles finish in,
# so the injected faults land on the same bytes on every run and the
# per-profile counters must equal the committed chaos.csv.
tmp_chaos="$(mktemp -d)"
cargo run --release -q -p tv-bench --bin chaos --offline -- \
    --out "$tmp_chaos"
cmp bench_results/chaos.csv "$tmp_chaos/chaos.csv"
echo "    chaos.csv byte-identical to the golden"
# Keep the quarantine sidecars as (untracked) artifacts: the corrupt
# journal lines whose counts chaos.csv reports.
for q in "$tmp_chaos"/chaos/*/campaign.journal.quarantine; do
    [[ -e "$q" ]] || continue
    cp "$q" "bench_results/chaos_$(basename "$(dirname "$q")").quarantine"
done

echo "==> chaos + real worker kill -9: quarantine/backoff fleet still converges"
# The harshest process-fabric mix: TV_CHAOS cluster injection AND a real
# SIGKILL of a live worker. Runs that an injected fault kills are resumed
# (the operational recipe); the survivors' CSV must match the smoke
# reference byte-for-byte.
chaos_ok=0
for attempt in 1 2 3 4 5; do
    resume_flag=""
    [[ "$attempt" -gt 1 ]] && resume_flag="--resume"
    TV_CHAOS=42:cluster ./target/release/campaign \
        --smoke --procs 3 --out "$tmp_chaos/killed" $resume_flag \
        >>"$tmp_chaos/chaos-kill.log" 2>&1 &
    chaos_pid=$!
    if [[ "$attempt" == 1 ]]; then
        worker_pid=""
        for _ in $(seq 200); do
            worker_pid="$(pgrep -P "$chaos_pid" 2>/dev/null | head -n1 || true)"
            [[ -n "$worker_pid" ]] && break
            sleep 0.02
        done
        [[ -n "$worker_pid" ]] && kill -9 "$worker_pid" 2>/dev/null
    fi
    if wait "$chaos_pid"; then chaos_ok=1; break; fi
done
[[ "$chaos_ok" == 1 ]] || { echo "FAIL: chaos cluster campaign never converged"; \
    cat "$tmp_chaos/chaos-kill.log"; exit 1; }
grep -q "died" "$tmp_chaos/chaos-kill.log" \
    || { echo "FAIL: no worker death was ever reported under chaos + kill -9"; exit 1; }
cmp bench_results/campaign_smoke.csv "$tmp_chaos/killed/campaign.csv"
echo "    CSV byte-identical under TV_CHAOS=42:cluster plus a real worker kill -9"
rm -rf "$tmp_chaos"

if [[ "$SKIP_SWEEP" == 1 ]]; then
    echo "==> sweep skipped (--skip-sweep)"
else
    echo "==> worker-count determinism sweep (fig4 --quick at 1/2/4 workers)"
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    for w in 1 2 4; do
        echo "    workers=$w"
        cargo run --release -q -p tv-bench --bin fig4 --offline -- \
            --quick --workers "$w" --out "$tmp/w$w" >"$tmp/w$w.stdout" 2>/dev/null
    done
    diff "$tmp/w1/fig4.csv" "$tmp/w2/fig4.csv"
    diff "$tmp/w1/fig4.csv" "$tmp/w4/fig4.csv"
    echo "    fig4.csv byte-identical at 1/2/4 workers"
fi

echo "==> simulator-throughput gate (vs committed BENCH_simspeed.json)"
# Last, after every byte-identity leg, and fatal in every mode: a slow
# host fails here only after the legs above have proved the bytes.
# Wall-clock smoke gate: fail on a gross solo regression (>25% below the
# committed per-scheme baseline; SIMSPEED_GATE=0.4 loosens it on noisy
# shared runners) or when the co-sim sweep-cell speedup drops below its
# floor (SIMSPEED_COSIM_MIN, default 1.5x; the committed headline is
# ~2.6x on the screening cell).
cargo run --release -q -p tv-bench --bin simspeed --offline -- \
    --reps 2 --check BENCH_simspeed.json

echo "==> verify OK"
