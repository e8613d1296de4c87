#!/usr/bin/env bash
# Tier-1 gate: build, full test suite, bench compile check, the CART engine,
# compiled-inference, and simulator-core benchmark artifacts (BENCH_cart.json,
# BENCH_predict.json, and BENCH_sim.json at the repo root), a fault-injection
# training sweep that must complete with zero skipped points (replayed
# byte-identically on the reference simulator core), the serve smoke gate
# (replay determinism across worker counts, across both scoring engines,
# and across fused batch sizes, plus BENCH_serve.json), and
# the cluster gate (trace replay byte-identical across
# 1/2/4 nodes, verified snapshot replication, a kill → rejoin run, and
# BENCH_cluster.json), and the search gate (same-seed adaptive campaigns
# byte-identical across fresh stores and kill → resume, plus
# BENCH_search.json), and the commit-plane gate (per-point vs
# group-committed campaigns byte-identical end to end, plus
# BENCH_train.json).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test -q --offline --workspace
cargo bench --no-run --offline --workspace
cargo run --release --offline -p acic-bench --bin bench_cart

# Compiled-plane gate: the batched flat-arena scorer must hold its speedup
# over the interpreted oracle (the binary asserts the >= 3x median pair
# ratio itself) with zero prediction mismatches recorded in the artifact,
# and the fused cross-request sweep must rank the full grid >= 3x the
# oracle with zero rank mismatches.
cargo run --release --offline -p acic-bench --bin bench_predict
grep -q '"mismatches": 0' BENCH_predict.json
grep -q '"fused_speedup_floor_3x": true' BENCH_predict.json

# Simulator-core gate: the event-driven core must reproduce the
# progressive-filling reference oracle bit-for-bit on every storm seed
# (zero mismatches in the artifact) and hold its events/sec speedup on a
# campaign-scale storm (the binary asserts the median pair ratio itself,
# with a gate_mode-reduced bar on single-core runners).
cargo run --release --offline -p acic-bench --bin bench_sim
grep -q '"mismatches": 0' BENCH_sim.json

# Resilience gate: a training campaign under the paper's observed fault rate
# (§5.6 observation 5) must retry every abort away.  `train` exits non-zero
# if any point was skipped (no --allow-skips given), so the gate is the exit
# code.  The acceptance tests for kill/resume bit-identity run above as part
# of the workspace suite (tests/resilience.rs, tests/properties.rs).
cargo run --release --offline -p acic-cli --bin acic -- \
  train --dims 4 --faults paper-rate --report --out target/tier1-train-db.txt

# Simulator-core cross-check: the same faulted campaign replayed on the
# reference oracle (ACIC_SIM=reference) must write byte-identical database
# text — the event core trains on exactly what the oracle would measure.
ACIC_SIM=reference ./target/release/acic \
  train --dims 4 --faults paper-rate --out target/tier1-train-db-ref.txt
cmp target/tier1-train-db.txt target/tier1-train-db-ref.txt
rm -f target/tier1-train-db-ref.txt

# Serve gate: the same replay file answered at two worker counts — with a
# mid-replay hot-swap to a freshly retrained (identical) snapshot — must
# produce bit-identical stdout, and admission control must shed nothing at
# tier-1 load (the summary line literally says "shed 0").
./target/release/acic serve --db target/tier1-train-db.txt --workers 1 \
  --replay scripts/serve_replay.txt --swap-at 10 > target/tier1-serve-w1.txt
./target/release/acic serve --db target/tier1-train-db.txt --workers 2 \
  --replay scripts/serve_replay.txt --swap-at 10 > target/tier1-serve-w2.txt
cmp target/tier1-serve-w1.txt target/tier1-serve-w2.txt
grep -q "shed 0" target/tier1-serve-w1.txt
# Engine cross-check: the same replay forced through the interpreted
# reference oracle (ACIC_ENGINE=interpreted) must produce byte-identical
# output — the compiled plane serves exactly what the oracle would.
ACIC_ENGINE=interpreted ./target/release/acic serve --db target/tier1-train-db.txt \
  --workers 2 --replay scripts/serve_replay.txt --swap-at 10 \
  > target/tier1-serve-oracle.txt
cmp target/tier1-serve-w1.txt target/tier1-serve-oracle.txt
# Fused-drain cross-check: one request per drain (--batch 1) must serve the
# same bytes the default multi-request fused drain serves.
./target/release/acic serve --db target/tier1-train-db.txt \
  --workers 2 --batch 1 --replay scripts/serve_replay.txt --swap-at 10 \
  > target/tier1-serve-batch1.txt
cmp target/tier1-serve-w1.txt target/tier1-serve-batch1.txt
rm -f target/tier1-train-db.txt target/tier1-serve-w1.txt target/tier1-serve-w2.txt \
  target/tier1-serve-oracle.txt target/tier1-serve-batch1.txt

# Cluster gate: a recorded trace replayed through 1-, 2-, and 4-node
# clusters-in-a-process (with a mid-replay generation republish) must be
# byte-identical on stdout (digest + answered/shed) AND in the full
# per-request payload files, every snapshot replica must verify, and one
# kill → rejoin run must complete with deterministic sheds.
./target/release/acic serve --trace-out target/tier1-cluster.trace --trace-len 20000
for n in 1 2 4; do
  ./target/release/acic serve --trace target/tier1-cluster.trace --nodes "$n" \
    --dims 3 --workers 2 --swap-at 10000 --replay-out "target/tier1-cluster-n$n.replay" \
    > "target/tier1-cluster-n$n.txt" 2> "target/tier1-cluster-n$n.log"
done
cmp target/tier1-cluster-n1.txt target/tier1-cluster-n2.txt
cmp target/tier1-cluster-n1.txt target/tier1-cluster-n4.txt
cmp target/tier1-cluster-n1.replay target/tier1-cluster-n2.replay
cmp target/tier1-cluster-n1.replay target/tier1-cluster-n4.replay
grep -q "shed=0" target/tier1-cluster-n1.txt
grep -q "(0 failures)" target/tier1-cluster-n4.log
./target/release/acic serve --trace target/tier1-cluster.trace --nodes 4 \
  --dims 3 --workers 2 --kill-node 1 \
  > target/tier1-cluster-kill.txt 2> target/tier1-cluster-kill.log
grep -q "(0 failures)" target/tier1-cluster-kill.log
rm -f target/tier1-cluster.trace target/tier1-cluster-n*.txt \
  target/tier1-cluster-n*.log target/tier1-cluster-n*.replay \
  target/tier1-cluster-kill.txt target/tier1-cluster-kill.log

# Store gate: the durable train → publish → serve lifecycle must survive a
# mid-ingest kill and stay bit-deterministic end to end.
ACIC=./target/release/acic
STORE=target/tier1-store
rm -rf "$STORE" target/tier1-snap*.txt target/tier1-store-serve*.txt
# 1. Train into the store, journaled; then simulate a kill mid-ingest by
#    chopping the WAL to two thirds (tearing its final line).
$ACIC train --dims 3 --seed 7 --store "$STORE" --resume target/tier1-store.journal \
  --out /dev/null
WAL="$STORE/wal.log"
head -c "$(( $(wc -c < "$WAL") * 2 / 3 ))" "$WAL" > "$WAL.cut" && mv "$WAL.cut" "$WAL"
# 2. Re-train the same campaign (journal resume + store dedup absorb the
#    repair), then a second campaign so the store holds both.
$ACIC train --dims 3 --seed 7 --store "$STORE" --resume target/tier1-store.journal \
  --out /dev/null
$ACIC train --dims 4 --seed 31415 --store "$STORE" --compact --out /dev/null
# 3. Publish; an immediate republish must be an incremental no-op, and a
#    forced republish to a second file must be byte-identical.
$ACIC publish --store "$STORE" --out target/tier1-snap.txt --seed 7
$ACIC publish --store "$STORE" --out target/tier1-snap.txt --seed 7 2> target/tier1-publish2.log
grep -q "up to date" target/tier1-publish2.log
$ACIC publish --store "$STORE" --out target/tier1-snap2.txt --seed 7 --force
cmp target/tier1-snap.txt target/tier1-snap2.txt
# 4. Serving from the snapshot and from the store directly must agree, and
#    a --watch serve over an unchanged snapshot must match too.
$ACIC serve --snapshot target/tier1-snap.txt --replay scripts/serve_replay.txt \
  --workers 2 > target/tier1-store-serve-snap.txt
$ACIC serve --store "$STORE" --seed 7 --replay scripts/serve_replay.txt \
  --workers 1 > target/tier1-store-serve-dir.txt
cmp target/tier1-store-serve-snap.txt target/tier1-store-serve-dir.txt
$ACIC serve --snapshot target/tier1-snap.txt --watch --replay scripts/serve_replay.txt \
  --workers 2 > target/tier1-store-serve-watch.txt
cmp target/tier1-store-serve-snap.txt target/tier1-store-serve-watch.txt
# 5. The served top-k must match the direct predictor path byte for byte:
#    `recommend --snapshot` prints the same notation the replay's first
#    line (btio 64 perf 3) was answered with.
$ACIC recommend --app btio --procs 64 --snapshot target/tier1-snap.txt --top 3 \
  2>/dev/null | awk 'NR>1 {printf "%s ", $2} END {print ""}' > target/tier1-recommend.txt
head -1 target/tier1-store-serve-snap.txt \
  | sed 's/^1\. BTIO-64 perf top3: //; s/=[0-9.]*/ /g; s/  */ /g' \
  > target/tier1-served.txt
cmp target/tier1-recommend.txt target/tier1-served.txt
rm -rf "$STORE" target/tier1-store.journal target/tier1-snap*.txt \
  target/tier1-store-serve*.txt target/tier1-recommend.txt target/tier1-served.txt \
  target/tier1-publish2.log

# Serve benchmark artifact (BENCH_serve.json at the repo root); its own
# asserts gate throughput scaling, shedding, and hot-swap correctness.
cargo run --release --offline -p acic-bench --bin bench_serve

# Cluster benchmark artifact (BENCH_cluster.json at the repo root): replays
# a million-request trace bit-identically across 1/2/4 nodes, proves the
# kill → rejoin → republish run equals the clean run over the non-shed
# requests, and gates >= 2x aggregate throughput at 4 nodes (the binary
# asserts all of it; the greps pin the artifact's verification fields).
cargo run --release --offline -p acic-bench --bin bench_cluster
grep -q '"replay_digests_equal": true' BENCH_cluster.json
grep -q '"kill_rejoin_digest_match": true' BENCH_cluster.json
grep -q '"verify_failures": 0' BENCH_cluster.json

# Search gate: the adaptive campaign planner must be a pure function of the
# campaign — two same-seed bandit runs into *fresh* separate stores plan and
# measure byte-identically, a kill → resume run (journal chopped to half)
# replays the same plan, and the two stores publish byte-identical
# snapshots.  (The stores must be fresh: re-running against a warm store
# answers proposals for free, which legitimately changes the accounting.)
rm -rf target/tier1-search-store? target/tier1-search*.txt \
  target/tier1-search*.journal target/tier1-search-snap?.txt
for i in 1 2; do
  $ACIC train --dims 4 --seed 7 --search bandit --budget 10 --batch 4 \
    --store "target/tier1-search-store$i" --plan-out "target/tier1-search-plan$i.txt" \
    --out "target/tier1-search-db$i.txt"
done
cmp target/tier1-search-plan1.txt target/tier1-search-plan2.txt
cmp target/tier1-search-db1.txt target/tier1-search-db2.txt
$ACIC publish --store target/tier1-search-store1 --out target/tier1-search-snap1.txt --seed 7
$ACIC publish --store target/tier1-search-store2 --out target/tier1-search-snap2.txt --seed 7
cmp target/tier1-search-snap1.txt target/tier1-search-snap2.txt
# Kill → resume: run journaled, chop the journal to half its bytes (torn
# tail), re-run the same campaign — the finished plan must not change.
$ACIC train --dims 4 --seed 7 --search bandit --budget 10 --batch 4 \
  --resume target/tier1-search.journal --plan-out target/tier1-search-plan3.txt \
  --out /dev/null
J=target/tier1-search.journal
head -c "$(( $(wc -c < "$J") / 2 ))" "$J" > "$J.cut" && mv "$J.cut" "$J"
$ACIC train --dims 4 --seed 7 --search bandit --budget 10 --batch 4 \
  --resume target/tier1-search.journal --plan-out target/tier1-search-plan4.txt \
  --out /dev/null
cmp target/tier1-search-plan3.txt target/tier1-search-plan4.txt
cmp target/tier1-search-plan1.txt target/tier1-search-plan3.txt
# Re-publishing an untouched store must be an incremental no-op.
$ACIC publish --store target/tier1-search-store1 --out target/tier1-search-snap1.txt \
  --seed 7 2> target/tier1-search-pub.log
grep -q "up to date" target/tier1-search-pub.log
rm -rf target/tier1-search-store? target/tier1-search*.txt \
  target/tier1-search*.journal target/tier1-search-pub.log

# Search benchmark artifact (BENCH_search.json at the repo root): bandit or
# halving within 5% of the full campaign's top-1 at ≤10% of its
# measurements on both seeded campaigns, warm start strictly cheaper than
# cold, plans byte-identical across rerun and kill → resume, and zero
# store-consistency violations (the binary asserts all of it; the greps
# pin the artifact's verification fields).
cargo run --release --offline -p acic-bench --bin bench_search
grep -q '"pass": true' BENCH_search.json
grep -q '"store_consistency_violations": 0' BENCH_search.json
grep -q '"within_5pct_apps": 2' BENCH_search.json
grep -q '"strictly_fewer": true' BENCH_search.json

# Commit-plane gate: a faulted campaign collected with per-point commits
# (--commit-batch 1, the durable oracle) and with the default group-commit
# width must leave byte-identical journals, databases, store MANIFESTs,
# and published snapshots — the writer plane only amortizes durability,
# never changes bytes.
rm -rf target/tier1-commit-store? target/tier1-commit*.txt target/tier1-commit*.journal
$ACIC train --dims 4 --seed 7 --faults paper-rate --commit-batch 1 \
  --resume target/tier1-commit1.journal --store target/tier1-commit-store1 \
  --report --out target/tier1-commit-db1.txt
$ACIC train --dims 4 --seed 7 --faults paper-rate \
  --resume target/tier1-commit2.journal --store target/tier1-commit-store2 \
  --report --out target/tier1-commit-db2.txt
cmp target/tier1-commit1.journal target/tier1-commit2.journal
cmp target/tier1-commit-db1.txt target/tier1-commit-db2.txt
cmp target/tier1-commit-store1/wal.log target/tier1-commit-store2/wal.log
$ACIC publish --store target/tier1-commit-store1 --out target/tier1-commit-snap1.txt --seed 7
$ACIC publish --store target/tier1-commit-store2 --out target/tier1-commit-snap2.txt --seed 7
cmp target/tier1-commit-store1/MANIFEST target/tier1-commit-store2/MANIFEST
cmp target/tier1-commit-snap1.txt target/tier1-commit-snap2.txt
rm -rf target/tier1-commit-store? target/tier1-commit*.txt target/tier1-commit*.journal

# Training-throughput artifact (BENCH_train.json at the repo root): the
# pipelined writer plane must sustain >= 3x the per-point durable oracle's
# campaign points/sec (adaptively downgraded to a no-regression check on
# filesystems where fsync is ~free), with zero byte divergences across
# commit modes and a bit-identical kill → resume (the binary asserts all
# of it; the greps pin the artifact's verification fields).
cargo run --release --offline -p acic-bench --bin bench_train
grep -q '"divergences": 0' BENCH_train.json
grep -q '"resume_identical": true' BENCH_train.json
grep -q '"pass": true' BENCH_train.json
