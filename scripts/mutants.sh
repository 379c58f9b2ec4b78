#!/usr/bin/env bash
# Mutation check: applies each mutant below, one at a time, to a copy of
# the working tree and runs the tier-1 tests that should catch it.
#
#   scripts/mutants.sh              # every mutant
#   scripts/mutants.sh <name>...    # only these
#
# Prints one KILLED/SURVIVED line per mutant and fails if any mutant
# survives, no longer compiles, or no longer applies (its search text must
# occur exactly once in its file). The copy and its build directory live
# under a `mktemp -d` directory (honours TMPDIR) and are removed on exit.
# Not a ci.sh stage: the first mutant builds the workspace's tests from
# scratch and every later one rebuilds the crates it touches.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
tree="$work/tree"
mkdir -p "$tree"
git -C "$root" ls-files -z --cached --others --exclude-standard |
    tar -C "$root" --null --ignore-failed-read -cf - -T - | tar -C "$tree" -xf -
export CARGO_TARGET_DIR="$work/target"

selected=("$@")
failures=0

# mutant <name> <file> <search> <replace> <cargo test args...>
mutant() {
    local name="$1" file="$2" search="$3" replace="$4"
    shift 4
    if [[ ${#selected[@]} -gt 0 && " ${selected[*]} " != *" ${name} "* ]]; then
        return 0
    fi
    local path="$tree/$file" text rest count
    text="$(<"$path")"
    rest="${text//"$search"/}"
    count=$(((${#text} - ${#rest}) / ${#search}))
    if [[ $count -ne 1 ]]; then
        echo "STALE    ${name}: search text occurs ${count}× in ${file}"
        failures=$((failures + 1))
        return 0
    fi
    cp "$path" "$work/original"
    printf '%s\n' "${text/"$search"/"$replace"}" >"$path"
    local log="$work/${name}.log" start=$SECONDS status=0
    (cd "$tree" && cargo test -q "$@") >"$log" 2>&1 || status=$?
    cp "$work/original" "$path"
    local took=$((SECONDS - start))
    if grep -q '^error\[E[0-9]*\]\|^error: could not compile' "$log"; then
        echo "BROKEN   ${name}: does not compile (${took} s)"
        grep -m3 '^error' "$log"
        failures=$((failures + 1))
    elif [[ $status -eq 0 ]]; then
        echo "SURVIVED ${name}: cargo test $* passed (${took} s)"
        failures=$((failures + 1))
    else
        local failed
        failed="$(grep -m1 -o '^test [^ ]* \.\.\. FAILED\|^---- [^ ]*' "$log" || true)"
        echo "KILLED   ${name}: cargo test $* (${took} s) ${failed}"
    fi
}

issue=crates/ooo/src/stages/issue.rs
squash=crates/ooo/src/stages/squash.rs
leak=crates/trace/src/leak.rs
arch=crates/ooo/src/arch.rs

mutant load-gate-off "$issue" \
    'if oldest < e.seq {' 'if oldest < e.seq && false {' \
    --test workload_differential issue_rules
mutant issue-width-plus-one "$issue" \
    'while issued_total < st.config.width {' 'while issued_total <= st.config.width {' \
    --test workload_differential issue_rules
mutant select-skips-live-class "$issue" \
    '&& free[usize::from(unit::LOAD)] > 0' '&& free[usize::from(unit::LOAD)] > 1' \
    --test observed_goldens
mutant ledger-window-no-seq-check "$leak" \
    'if *held == seq {' 'if true {' \
    -p specmpk-trace --test leak_properties windowed_joins
mutant squash-keeps-lq-entry "$squash" \
    'st.lq_len -= 1;' '' \
    -p specmpk-ooo --test differential
mutant squash-leaks-register crates/ooo/src/prf.rs \
    'self.release(new);' 'let _ = new;' \
    -p specmpk-ooo --test differential
mutant walk-back-oldest-first "$squash" \
    $'while st.al.len() > keep {\n        let victim = st.al.pop_back();' \
    $'for victim in (keep..st.al.len()).map(|i| st.al.slot_of(i)).collect::<Vec<_>>() {\n        st.al.pop_back();' \
    -p specmpk-ooo --test differential
mutant flush-drops-pkru-free "$squash" \
    $'            if let Some(tag) = st.al.pkru_tag[victim] {\n                cx.sink.record(TraceEvent::RobPkruFree {\n                    seq: st.al.seq[victim],\n                    cycle: st.cycle,\n                    tag: tag.raw(),\n                });\n            }\n' \
    '' \
    --test kard_use_case fault_flush_reports_its_victims_like_a_squash
mutant counter-mask-stays-set crates/core/src/counters.rs \
    'self.access_disable_mask &= !(1 << k);' '' \
    -p specmpk-core --lib engine::tests::retirement_drains_counters_and_commits
mutant ras-restore-skips-replay crates/ooo/src/predictor.rs \
    'self.ras[slot] = old;' 'let _ = (slot, old);' \
    -p specmpk-ooo --lib predictor::tests::restore_undoes_a_push_over_a_popped_slot
mutant no-fetch-after-transfer "$arch" \
    'fx.fetch(mem, at, hints.l1i(at));' 'if left == n { fx.fetch(mem, at, hints.l1i(at)); }' \
    --test fast_forward warmup_goldens
mutant line-op-missing "$arch" \
    '&& pc(k) % LINE_BYTES < INSTR_BYTES;' '&& pc(k) % LINE_BYTES < INSTR_BYTES && k != 8;' \
    -p specmpk-ooo --lib arch::tests::a_transfer_into_the_middle_of_a_line_fetches_that_line_once
mutant target-one-op-off "$arch" \
    'code.index(target).map_or(OUTSIDE, |i| i as u32)' 'code.index(target).map_or(OUTSIDE, |i| i as u32 + 1)' \
    --test fast_forward warmup_goldens
mutant hint-without-tag-check crates/mem/src/ways.rs \
    'if self.tags.get(way) == Some(&tag) {' 'if way < self.tags.len() {' \
    --test fast_forward warmup_goldens
mutant cow-copy-zeroes crates/mem/src/memory.rs \
    'Some(shared) => Page::clone(&self.shared[(shared ^ SHARED) as usize]),' \
    'Some(_) => Box::new([0; PAGE_BYTES as usize]),' \
    -p specmpk-mem --test properties clones_read_back_their_own_writes
mutant dtlb-hit-keeps-lru crates/mem/src/tlb.rs \
    $'self.clock += 1;\n        self.ways.touch(way, self.clock);\n    }\n\n    /// Promotes' \
    $'self.clock += 1;\n    }\n\n    /// Promotes' \
    --test fast_forward warmup_goldens
mutant lcg-lane-jump crates/workloads/src/codegen.rs \
    'let (a, c) = lcg_jump(LCG_LANES);' 'let (a, c) = lcg_jump(LCG_LANES - 1);' \
    --test codegen_goldens
mutant boot-reloads-program-image crates/ooo/src/pipeline.rs \
    'let mem = cp.mem.clone();' $'let mut mem = cp.mem.clone();\n        mem.load_program(program);' \
    --test fast_forward checkpoint_boot
mutant bad-pc-never-raised crates/ooo/src/pipeline.rs \
    'st.exit = Some(ExitReason::BadPc { pc: st.fetch_stalled_at });' 'let _ = st.fetch_stalled_at;' \
    -p specmpk-ooo --test differential random_programs_match_reference
mutant bad-pc-ignores-frontq crates/ooo/src/pipeline.rs \
    '&& st.al.is_empty() && st.frontq.is_empty() {' '&& st.al.is_empty() {' \
    -p specmpk-ooo --test differential random_programs_match_reference

if [[ $failures -gt 0 ]]; then
    echo "FAIL: ${failures} mutant(s) not killed"
    exit 1
fi
echo "PASS: every mutant killed"
