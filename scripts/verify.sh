#!/usr/bin/env bash
# Repo verification gate: tier-1 build+test, lints, formatting, the
# static-analysis conformance fuzz, and the quick benchmarks.
# Everything runs offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release --offline

echo "== tier-1: cargo test -q =="
cargo test -q --offline

echo "== cargo clippy --workspace -D warnings =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo fmt --check =="
cargo fmt --check

echo "== self-hosted lint gate (tpc_lint: determinism/panic/conformance rules) =="
# Parses the workspace's own source and enforces what clippy cannot:
# no unordered collections, wall clocks, or thread identity in result
# paths; panic hygiene in sweep-worker/store/daemon code; SimStats
# codec / FaultKind / service-protocol / --jobs / frontend-matrix
# conformance. Fails on
# any unallowlisted finding or stale allowlist entry; every allowlist
# entry (printed below) carries a written justification. Per-rule
# counts land in BENCH_lint.json.
cargo run -p tpc-lint --release --offline --bin tpc_lint -- \
  --list-allow --json BENCH_lint.json

echo "== workspace test suite (analyzer, oracle, experiments) =="
cargo test -q --offline --workspace

echo "== differential fuzz, 10s budget, fixed seed =="
# Every differential run lints the program and checks engine
# conformance against the static enumeration (see tpc-oracle::diff).
cargo run -p tpc-oracle --release --offline --bin fuzz_sim -- \
  --seed 1 --iters 1000000 --budget-ms 10000 --size 400 --instrs 2500

echo "== conformance + fault-injection differential: 500 seeded programs =="
# Every scenario runs fault-free AND under a seeded all-kinds fault
# plan (40 per mille per kind per cycle); retirement must match the
# golden model either way — preconstruction is hint hardware — and
# every start point pushed / trace constructed must be statically
# enumerable in both modes.
cargo run -p tpc-oracle --release --offline --bin fuzz_sim -- \
  --seed 42 --iters 500 --size 300 --instrs 2000 --faults 40

echo "== .asm frontend differential smoke: every shipped example, all four configs =="
# Each example is loaded through the asm frontend, linted, cross-
# checked against the synthetic executor frontend, then run through
# the differential oracle fault-free and under a seeded fault plan.
for f in examples/asm/*.asm; do
  cargo run -p tpc-oracle --release --offline --bin asm_run -- \
    "$f" --instructions 5000 --faults 40
done

echo "== checkpoint/resume round-trip: interrupted sweep, identical output =="
ckpt="$(mktemp -d)/degradation.ckpt"
run_degradation() {
  cargo run -p tpc-experiments --release --offline --bin degradation -- \
    --quick "$@" 2>/dev/null
}
run_degradation > /tmp/degradation.reference.md
run_degradation --checkpoint "$ckpt" > /tmp/degradation.full.md
diff /tmp/degradation.reference.md /tmp/degradation.full.md
# Interrupt: the checkpoint is a result-store file (one header line,
# then one record per cell keyed by its content fingerprint), so
# `head -n 6` keeps the header plus the first 5 recorded cells. The
# resumed sweep looks every cell up, re-runs only the misses and must
# print byte-identical output.
head -n 6 "$ckpt" > "$ckpt.cut" && mv "$ckpt.cut" "$ckpt"
run_degradation --checkpoint "$ckpt" > /tmp/degradation.resumed.md
diff /tmp/degradation.reference.md /tmp/degradation.resumed.md
rm -rf "$(dirname "$ckpt")" /tmp/degradation.{reference,full,resumed}.md

echo "== static-vs-dynamic coverage report (BENCH_analysis.json) =="
# Byte-identical at any job count, stdout and JSON alike.
cargo run -p tpc-experiments --release --offline --bin analysis_report -- \
  --quick --jobs 1 > /tmp/analysis.j1.md
cp BENCH_analysis.json /tmp/analysis.j1.json
cargo run -p tpc-experiments --release --offline --bin analysis_report -- \
  --quick --jobs 4 > /tmp/analysis.j4.md
diff /tmp/analysis.j1.md /tmp/analysis.j4.md
diff /tmp/analysis.j1.json BENCH_analysis.json
rm /tmp/analysis.j1.md /tmp/analysis.j4.md /tmp/analysis.j1.json

echo "== bench_throughput --quick =="
cargo run -p tpc-experiments --release --offline --bin bench_throughput -- --quick

echo "== sweep-service chaos gate (daemon kill/contain/memoize vs serial reference) =="
# Spawns real tpc_service daemons and attacks them: a starved cycle
# budget that times every cell out, a baseline:63 cell that panics on
# the trace cache's geometry assertion, an injected cache-write
# failure, a SIGKILL'd daemon restarted on a torn cache file, a cache
# path that is a directory. Merged results must stay bit-identical to
# a clean serial run_cells reference; failed cells must degrade into
# the error manifest while the sweep completes.
cargo build -p tpc-service --release --offline
cargo run -p tpc-service --release --offline --bin chaos_service -- --quick

echo "verify: OK"
