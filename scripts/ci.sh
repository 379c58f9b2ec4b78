#!/usr/bin/env bash
# Tier-1 CI gate. Run from the repository root:
#
#   ./scripts/ci.sh
#
# Stages (one PASS/FAIL line each; the first failure aborts):
#   build       cargo build --release --workspace
#   test-root   cargo test -q             (root package: integration + doc)
#   test-ws     cargo test -q --workspace (every crate, incl. property tests)
#   fmt         cargo fmt --check          (skipped when rustfmt is absent)
#   clippy      cargo clippy -D warnings   (skipped when clippy is absent)
#   doc         cargo doc --no-deps with RUSTDOCFLAGS='-D warnings'
#   experiments fast-subset experiment bins under the pinned budgets below
#   report      specmpk-report --check baselines/ — regression gate
#   obs-smoke   short sim with --progress/--profile/--journal on; checks
#               heartbeat lines, the host_profile stats section, and the
#               journal summary (specmpk-report journal); plus a
#               --profile-guest run rendered by `specmpk-report profile`
#               (hot-PC rows + WRPKRU site rows must be non-empty); plus
#               two identical --trace/--leak-ledger runs whose Konata and
#               ledger files must match (cmp), with disassembly on every
#               fetch line and a non-empty ledger
#   security    security_matrix bin (every attack × every policy with the
#               speculative-access ledger on), gated by `specmpk-report
#               security --check` against baselines/security/verdicts.json
#   checkpoint  fast-forward/checkpoint smoke: two --checkpoint saves must
#               be byte-identical (cmp), and a --restore run's stats
#               artifact must equal the in-process --fast-forward run's
#
# The regression gate reruns the fast experiment subset with pinned,
# shrunken budgets (SPECMPK_INSTR_BUDGET=100000, SPECMPK_FIG4_KINSTR=40 —
# the same pins the committed baselines/ were generated with; see
# baselines/README.md) and diffs every artifact metric against the
# committed golden stats. The simulator is deterministic, so the default
# tolerance in scripts/tolerances.json is effectively exact.
#
# The `calibrate` grid search is too slow for this subset; its baseline
# stays committed and `specmpk-report --check` reports it as SKIP.
#
# The script is offline-safe: all dependencies are vendored path crates,
# so no stage touches the network.
set -euo pipefail
cd "$(dirname "$0")/.."

# Wall-clock bookkeeping (bash integer arithmetic on nanosecond stamps;
# the container has no `bc` or `/usr/bin/time`). Collected per stage and
# per experiment bin, printed as a summary table, and written to
# experiments_output/timing.json (the report gate only reads baselines/,
# so the extra file is ignored by the regression check).
now_ms() {
    echo $(( $(date +%s%N) / 1000000 ))
}

STAGE_NAMES=()
STAGE_MS=()
BIN_NAMES=()
BIN_MS=()

stage() {
    local name="$1"
    shift
    echo "==> ${name}: $*"
    local start
    start=$(now_ms)
    if "$@"; then
        local elapsed=$(( $(now_ms) - start ))
        STAGE_NAMES+=("${name}")
        STAGE_MS+=("${elapsed}")
        echo "PASS ${name} (${elapsed} ms)"
    else
        echo "FAIL ${name}"
        exit 1
    fi
}

# Pinned budgets for the regression-gated experiment runs.
export SPECMPK_INSTR_BUDGET=100000
export SPECMPK_FIG4_KINSTR=40

FAST_BINS=(
    table1 table2 table3 hw_overhead
    fig3 fig4 fig9 fig10 fig11 fig13
    rdpkru_study domain_virtualization
)

run_experiments() {
    rm -rf experiments_output
    local bin start elapsed
    for bin in "${FAST_BINS[@]}"; do
        start=$(now_ms)
        cargo run -q --release -p specmpk-experiments --bin "${bin}" >/dev/null
        elapsed=$(( $(now_ms) - start ))
        BIN_NAMES+=("${bin}")
        BIN_MS+=("${elapsed}")
        echo "    ${bin}: ${elapsed} ms"
    done
}

run_report() {
    cargo run -q --release -p specmpk-report -- \
        --check baselines --tolerance-file scripts/tolerances.json
}

# Exercises the host-observability layer end to end: heartbeat telemetry
# at a 25 ms interval, host stage profiling into the stats artifact, and
# the micro-event journal summarized by `specmpk-report journal`. The
# env vars are scoped to the one sim invocation — the gated experiments
# stage above runs env-clean, and obs_smoke/ is a subdirectory the
# report gate never scans. `stage` calls this from an `if`, where
# `set -e` does not apply, so every check returns on failure itself.
run_obs_smoke() {
    local out=experiments_output/obs_smoke
    rm -rf "${out}"
    mkdir -p "${out}"
    SPECMPK_PROGRESS=25 SPECMPK_PROFILE=1 \
        cargo run -q --release --bin specmpk-sim -- \
        --workload omnetpp --policy specmpk --instructions 150000 \
        --journal "${out}/journal.jsonl" --stats-json "${out}/stats.json" \
        > /dev/null 2> "${out}/progress.log"
    grep -q '^\[progress\] .* done:' "${out}/progress.log" || return 1
    grep -q '"host_profile"' "${out}/stats.json" || return 1
    cargo run -q --release -p specmpk-report -- \
        journal "${out}/journal.jsonl" > "${out}/journal_summary.txt"
    grep -q '^top squash cause:' "${out}/journal_summary.txt" || return 1
    # Guest attribution: a profiled run must yield a non-empty hot-PC
    # table and WRPKRU site rows, and the journal cross-reference must
    # join on the shared site PCs.
    cargo run -q --release --bin specmpk-sim -- \
        --workload omnetpp --policy specmpk --instructions 150000 \
        --profile-guest --stats-json "${out}/guest_stats.json" > /dev/null
    cargo run -q --release -p specmpk-report -- \
        profile "${out}/guest_stats.json" > "${out}/guest_profile.txt"
    grep -q '^  0x' "${out}/guest_profile.txt" || return 1
    grep -q '^wrpkru sites:' "${out}/guest_profile.txt" || return 1
    grep -q '^specmpk;' "${out}/guest_profile.txt" || return 1
    cargo run -q --release -p specmpk-report -- \
        journal "${out}/journal.jsonl" --sites "${out}/guest_stats.json" \
        | grep -q '^site cross-reference' || return 1
    # Konata trace and leak ledger through the CLI: the same run twice
    # writes the same bytes, every fetch line ends in the instruction's
    # disassembly, and the ledger has entries.
    local run fetches named
    for run in 1 2; do
        cargo run -q --release --bin specmpk-sim -- \
            --workload omnetpp --policy specmpk --instructions 150000 \
            --trace "${out}/pipe${run}.kanata" \
            --leak-ledger "${out}/ledger${run}.jsonl" > /dev/null || return 1
    done
    cmp "${out}/pipe1.kanata" "${out}/pipe2.kanata" || return 1
    cmp "${out}/ledger1.jsonl" "${out}/ledger2.jsonl" || return 1
    fetches=$(grep -c '^O3PipeView:fetch:' "${out}/pipe1.kanata")
    named=$(grep -Ec '^O3PipeView:fetch:[0-9]+:0x[0-9a-f]{16}:0:[0-9]+:[a-z]' "${out}/pipe1.kanata")
    [[ "${fetches}" -gt 0 && "${named}" -eq "${fetches}" ]] || return 1
    [[ "$(wc -l < "${out}/ledger1.jsonl")" -gt 0 ]] || return 1
    echo "    obs-smoke: $(grep -c '^\[progress\]' "${out}/progress.log") heartbeat lines, \
$(wc -l < "${out}/journal.jsonl") journal events, \
$(grep -c '^  0x' "${out}/guest_profile.txt") profile rows, \
${fetches} Konata blocks, $(wc -l < "${out}/ledger1.jsonl") ledger lines"
}

stage build cargo build --release --workspace
stage test-root cargo test -q
stage test-ws cargo test -q --workspace

if cargo fmt --version >/dev/null 2>&1; then
    stage fmt cargo fmt --check
else
    echo "SKIP fmt (rustfmt not installed)"
fi

if cargo clippy --version >/dev/null 2>&1; then
    stage clippy cargo clippy --workspace --all-targets -- -D warnings
else
    echo "SKIP clippy (clippy not installed)"
fi

stage doc env RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace

# The policy × attack transient-leakage matrix: run every PoC under every
# registered policy with the speculative-access ledger attached, then gate
# the verdicts (and their ledger evidence) against the committed goldens.
# The matrix bin runs after the report gate so security_matrix.json never
# enters the gated artifact set mid-transition.
run_security() {
    local bin=security_matrix start elapsed
    start=$(now_ms)
    cargo run -q --release -p specmpk-experiments --bin "${bin}" >/dev/null
    elapsed=$(( $(now_ms) - start ))
    BIN_NAMES+=("${bin}")
    BIN_MS+=("${elapsed}")
    echo "    ${bin}: ${elapsed} ms"
    cargo run -q --release -p specmpk-report -- \
        security experiments_output/security_matrix.json \
        --check baselines/security/verdicts.json
}

# Checkpointed fast-forward, end to end through the CLI: the checkpoint
# format is byte-deterministic (two saves of the same warm state must be
# identical files), and booting the detailed window from a restored file
# must reproduce the in-process fast-forward run's stats artifact exactly.
# checkpoint_smoke/ is a subdirectory the report gate never scans.
run_checkpoint() {
    local out=experiments_output/checkpoint_smoke
    rm -rf "${out}"
    mkdir -p "${out}"
    cargo run -q --release --bin specmpk-sim -- \
        --workload omnetpp --policy specmpk --fast-forward 50000 \
        --checkpoint "${out}/warm.ckpt" > /dev/null
    cargo run -q --release --bin specmpk-sim -- \
        --workload omnetpp --policy specmpk --fast-forward 50000 \
        --checkpoint "${out}/warm2.ckpt" > /dev/null
    cmp "${out}/warm.ckpt" "${out}/warm2.ckpt" || return 1
    cargo run -q --release --bin specmpk-sim -- \
        --workload omnetpp --policy specmpk --fast-forward 50000 \
        --instructions 60000 --stats-json "${out}/inprocess.json" > /dev/null
    cargo run -q --release --bin specmpk-sim -- \
        --workload omnetpp --policy specmpk --restore "${out}/warm.ckpt" \
        --instructions 60000 --stats-json "${out}/restored.json" > /dev/null
    cmp "${out}/restored.json" "${out}/inprocess.json"
    echo "    checkpoint: $(wc -c < "${out}/warm.ckpt")-byte checkpoint, saves byte-identical, restored == in-process"
}

stage experiments run_experiments
stage report run_report
stage obs-smoke run_obs_smoke
stage security run_security
stage checkpoint run_checkpoint

# ------------------------------------------------- timing summary + JSON
# The shell only measures; `specmpk-report timing` is the single producer
# of the timing.json schema (shared with `specmpk-report perf`).
write_timing_json() {
    local i
    {
        for i in "${!STAGE_NAMES[@]}"; do
            echo "stage ${STAGE_NAMES[$i]} ${STAGE_MS[$i]}"
        done
        for i in "${!BIN_NAMES[@]}"; do
            echo "bin ${BIN_NAMES[$i]} ${BIN_MS[$i]}"
        done
    } | cargo run -q --release -p specmpk-report -- \
        timing --out experiments_output/timing.json
}

echo "==> wall-clock summary"
printf '%-24s %10s\n' "stage" "ms"
for i in "${!STAGE_NAMES[@]}"; do
    printf '%-24s %10s\n' "${STAGE_NAMES[$i]}" "${STAGE_MS[$i]}"
done
printf '%-24s %10s\n' "  experiment bin" "ms"
for i in "${!BIN_NAMES[@]}"; do
    printf '  %-22s %10s\n' "${BIN_NAMES[$i]}" "${BIN_MS[$i]}"
done
write_timing_json

# Opt-in perf-ledger append: set SPECMPK_PERF_PR=<label> to record this
# run's timing.json + Criterion baseline medians as one BENCH_perf.json
# entry. Off by default — append_entry has no dedup, so every routine CI
# run would otherwise pile an identical entry onto the ledger.
if [[ -n "${SPECMPK_PERF_PR:-}" ]]; then
    echo "==> perf-ledger: appending entry '${SPECMPK_PERF_PR}' to BENCH_perf.json"
    cargo run -q --release -p specmpk-report -- \
        perf --pr "${SPECMPK_PERF_PR}" --append \
        ${SPECMPK_PERF_NOTES:+--notes "${SPECMPK_PERF_NOTES}"}
fi

echo "==> CI OK"
