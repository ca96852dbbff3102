#!/bin/sh
# CI gate: formatting, lints, and the tier-1 build + test pass.
#
# Run from the repository root. Fails fast on the first broken stage so the
# log points straight at the offending gate.
set -eu

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> benchmark: perf_ledger builds against the workspace and its tests pass"
# The benchmark is a package of its own, outside the workspace: a workspace
# API change that breaks it would otherwise go unnoticed.
cargo test --release --manifest-path crates/bench/src/bin/perf_ledger/Cargo.toml \
    --target-dir target

echo "==> benchmark: seed-1 reference digests of bodiag-boot, fig4-interp and server-sched are the pinned ones"
# Guest bytes of kernel boot/teardown, of the interpreter's data path and
# of the scheduler (blocking pipes, wakes, context switches, swap):
# perf_ledger exits 1 when a sweep's digest differs from the pinned one or
# any case fails. Wall values are printed but not gated.
for workload in bodiag-boot fig4-interp server-sched; do
    bash crates/bench/src/bin/perf_ledger/run.sh --workload "$workload" \
        --seed 1 --secs 0 --trace 0 > "target/ledger-$workload.txt" || {
        echo "FAIL: perf_ledger $workload at seed 1 is not correct:"
        cat "target/ledger-$workload.txt"
        exit 1
    }
done

echo "==> report cache: warm table1 re-run is 100% hits and byte-identical"
cargo build --release -p cheri-bench --bins
rm -rf target/harness-cache
./target/release/table1 --jobs 2 --json --cache \
    > target/table1-cold.json 2> target/table1-cold.err
./target/release/table1 --jobs 2 --json --cache \
    > target/table1-warm.json 2> target/table1-warm.err
grep -q ", 0 misses" target/table1-warm.err || {
    echo "FAIL: warm table1 run executed cases instead of hitting the cache:"
    cat target/table1-warm.err
    exit 1
}
cmp target/table1-cold.json target/table1-warm.json || {
    echo "FAIL: warm table1 JSON differs from the cold run"
    exit 1
}

echo "==> shards: table1 0/2 + 1/2 merge byte-identically to the unsharded run"
./target/release/table1 --jobs 2 --shard 0/1 > target/table1-full.lines
./target/release/table1 --jobs 2 --shard 0/2 > target/table1-s0.lines
./target/release/table1 --jobs 2 --shard 1/2 > target/table1-s1.lines
sort -t: -k2,2n target/table1-s0.lines target/table1-s1.lines \
    > target/table1-merged.lines
cmp target/table1-full.lines target/table1-merged.lines || {
    echo "FAIL: merged shard output differs from the unsharded run"
    exit 1
}

echo "==> golden: pinned table1 sub-suite is byte-identical to the committed golden"
./target/release/run_specs --specs scripts/golden/table1_pinned.specs \
    --jobs 2 --no-cache --shard 0/1 > target/table1-pinned.lines
cmp scripts/golden/table1_pinned.golden target/table1-pinned.lines || {
    echo "FAIL: pinned sub-suite output differs from scripts/golden/table1_pinned.golden"
    echo "      (cycle/L2 metrics changed; if intentional, regenerate the golden:"
    echo "       ./target/release/run_specs --specs scripts/golden/table1_pinned.specs \\"
    echo "           --jobs 2 --no-cache --shard 0/1 > scripts/golden/table1_pinned.golden)"
    exit 1
}

echo "==> golden: pinned table3 sub-suite is byte-identical to the committed golden"
./target/release/run_specs --specs scripts/golden/table3_pinned.specs \
    --jobs 2 --no-cache --shard 0/1 > target/table3-pinned.lines
cmp scripts/golden/table3_pinned.golden target/table3-pinned.lines || {
    echo "FAIL: pinned sub-suite output differs from scripts/golden/table3_pinned.golden"
    echo "      (detection outcomes or metrics changed; if intentional, regenerate:"
    echo "       ./target/release/run_specs --specs scripts/golden/table3_pinned.specs \\"
    echo "           --jobs 2 --no-cache --shard 0/1 > scripts/golden/table3_pinned.golden)"
    exit 1
}

echo "==> tier equivalence: pinned suites byte-identical across all three exec modes"
# The pinned runs above used the default tier (--exec-mode template); the
# reference interpreter and plain stepping must reproduce them byte for byte.
./target/release/run_specs --specs scripts/golden/table1_pinned.specs \
    --jobs 2 --no-cache --exec-mode single --shard 0/1 > target/table1-singlestep.lines
cmp target/table1-pinned.lines target/table1-singlestep.lines || {
    echo "FAIL: guest metrics diverge between the template tier and the"
    echo "      reference interpreter on the table1 pinned suite"
    exit 1
}
./target/release/run_specs --specs scripts/golden/table1_pinned.specs \
    --jobs 2 --no-cache --exec-mode superblock --shard 0/1 \
    > target/table1-superblock.lines
cmp target/table1-pinned.lines target/table1-superblock.lines || {
    echo "FAIL: guest metrics diverge between the template tier and"
    echo "      plain stepping on the table1 pinned suite"
    exit 1
}
./target/release/run_specs --specs scripts/golden/table3_pinned.specs \
    --jobs 2 --no-cache --exec-mode single --shard 0/1 > target/table3-singlestep.lines
cmp target/table3-pinned.lines target/table3-singlestep.lines || {
    echo "FAIL: guest metrics diverge between the template tier and the"
    echo "      reference interpreter on the table3 pinned suite"
    exit 1
}
./target/release/run_specs --specs scripts/golden/table3_pinned.specs \
    --jobs 2 --no-cache --exec-mode superblock --shard 0/1 \
    > target/table3-superblock.lines
cmp target/table3-pinned.lines target/table3-superblock.lines || {
    echo "FAIL: guest metrics diverge between the template tier and"
    echo "      plain stepping on the table3 pinned suite"
    exit 1
}

echo "==> template tier: interp cross-check is clean, and catches --weaken-flush"
./target/release/interp_throughput --trials 1 --spin-iters 200000 \
    --out target/interp-smoke.json > /dev/null || {
    echo "FAIL: guest metrics diverge across interpreter modes (see above)"
    exit 1
}
if ./target/release/interp_throughput --trials 1 --spin-iters 200000 \
    --weaken-flush --out target/interp-weak.json > /dev/null 2>&1; then
    echo "FAIL: a dropped template exit flush went undetected — the cross-tier"
    echo "      metric check is broken (it must fail when residency is wrong)"
    exit 1
fi

echo "==> fleet: --exec-mode forwards through fleet workers byte-identically"
./target/release/run_specs --specs scripts/golden/table1_pinned.specs \
    --exec-mode superblock --dump-specs > target/execmode-dump.lines
[ "$(grep -c '"exec_mode":"superblock"' target/execmode-dump.lines)" \
    = "$(wc -l < target/execmode-dump.lines)" ] || {
    echo "FAIL: --exec-mode did not rewrite every spec (fleet workers and dumps"
    echo "      must see the mode the command line asked for)"
    exit 1
}
./target/release/table1 --jobs 2 --json --fleet 2 --exec-mode superblock \
    > target/table1-fleet-sb.json 2> target/table1-fleet-sb.err
cmp target/table1-cold.json target/table1-fleet-sb.json || {
    echo "FAIL: table1 under --fleet 2 --exec-mode superblock differs from the"
    echo "      single-process template-tier run:"
    cat target/table1-fleet-sb.err
    exit 1
}

echo "==> fault plane: 8-seed campaign is panic-free with no silent successes"
./target/release/fault_campaign --seeds 8 --jobs 2 --out target/faults-smoke.json || {
    echo "FAIL: fault campaign reported host panics or silent successes"
    exit 1
}
./target/release/fault_campaign --seeds 8 --jobs 2 --exec-mode single \
    --out target/faults-smoke-singlestep.json || {
    echo "FAIL: reference-interpreter fault campaign reported host panics or silent successes"
    exit 1
}
cmp target/faults-smoke.json target/faults-smoke-singlestep.json || {
    echo "FAIL: fault-campaign JSON diverges between plain stepping and"
    echo "      the reference interpreter (8-seed smoke)"
    exit 1
}
if ./target/release/fault_campaign --seeds 2 --jobs 2 --out /dev/null \
    --weaken-tag-clear > /dev/null 2>&1; then
    echo "FAIL: weakened tag clearing went undetected — the silent-success"
    echo "      oracle is broken (it must fail when corruption keeps its tag)"
    exit 1
fi
./target/release/fault_campaign --seeds 2 --dump-specs > target/faults-specs.lines
cmp scripts/golden/fault_campaign.specs target/faults-specs.lines || {
    echo "FAIL: fault campaign spec matrix differs from scripts/golden/fault_campaign.specs"
    echo "      (if intentional, regenerate the golden:"
    echo "       ./target/release/fault_campaign --seeds 2 --dump-specs \\"
    echo "           > scripts/golden/fault_campaign.specs)"
    exit 1
}

echo "==> oracle plane: pinned suites are byte-identical under --oracle replay"
./target/release/run_specs --specs scripts/golden/table1_pinned.specs \
    --jobs 2 --no-cache --oracle replay --shard 0/1 > target/table1-oracle-replay.lines
cmp target/table1-pinned.lines target/table1-oracle-replay.lines || {
    echo "FAIL: the fast machine and the reference interpreter disagree on the"
    echo "      table1 pinned suite (--oracle replay changed the output)"
    exit 1
}
./target/release/run_specs --specs scripts/golden/table3_pinned.specs \
    --jobs 2 --no-cache --oracle replay --shard 0/1 > target/table3-oracle-replay.lines
cmp target/table3-pinned.lines target/table3-oracle-replay.lines || {
    echo "FAIL: the fast machine and the reference interpreter disagree on the"
    echo "      table3 pinned suite (--oracle replay changed the output)"
    exit 1
}

echo "==> oracle plane: pinned suites are byte-identical under --oracle lockstep"
./target/release/run_specs --specs scripts/golden/table1_pinned.specs \
    --jobs 2 --no-cache --oracle lockstep --shard 0/1 > target/table1-oracle-lockstep.lines
cmp target/table1-pinned.lines target/table1-oracle-lockstep.lines || {
    echo "FAIL: the per-step lockstep shadow diverged (or perturbed guest metrics)"
    echo "      on the table1 pinned suite"
    exit 1
}
./target/release/run_specs --specs scripts/golden/table3_pinned.specs \
    --jobs 2 --no-cache --oracle lockstep --shard 0/1 > target/table3-oracle-lockstep.lines
cmp target/table3-pinned.lines target/table3-oracle-lockstep.lines || {
    echo "FAIL: the per-step lockstep shadow diverged (or perturbed guest metrics)"
    echo "      on the table3 pinned suite"
    exit 1
}

echo "==> oracle plane: 8-seed fault campaign is divergence-free under lockstep"
./target/release/fault_campaign --seeds 8 --jobs 2 --no-cache --oracle lockstep \
    --out target/faults-oracle.json || {
    echo "FAIL: the lockstep oracle reported divergences (or the campaign broke)"
    echo "      over the 8-seed fault sweep"
    exit 1
}

echo "==> oracle plane: fixed-seed prop_oracle fuzz is clean, and catches --weaken-sem"
./target/release/prop_oracle --cases 64 --seed 7 || {
    echo "FAIL: property fuzz found an oracle divergence or a monotonicity break"
    exit 1
}
if ./target/release/prop_oracle --cases 64 --seed 7 --weaken-sem > /dev/null 2>&1; then
    echo "FAIL: weakened csetbounds semantics went undetected — the differential"
    echo "      oracle is broken (it must diverge when the bounds clamp is off)"
    exit 1
fi

echo "==> oracle plane: sampled lockstep (--oracle-every 64) matches the plain run"
./target/release/run_specs --specs scripts/golden/table1_pinned.specs \
    --jobs 2 --no-cache --oracle lockstep --oracle-every 64 --shard 0/1 \
    > target/table1-oracle-sampled.lines
cmp target/table1-pinned.lines target/table1-oracle-sampled.lines || {
    echo "FAIL: sampled lockstep perturbed guest metrics (or diverged) on the"
    echo "      table1 pinned suite (--oracle-every must be observation-only)"
    exit 1
}

echo "==> attack plane: spec matrix is byte-identical to the committed golden"
./target/release/table_attacks --dump-specs > target/attacks-specs.lines
cmp scripts/golden/table_attacks.specs target/attacks-specs.lines || {
    echo "FAIL: attack spec matrix differs from scripts/golden/table_attacks.specs"
    echo "      (if intentional, regenerate the specs AND the golden:"
    echo "       ./target/release/table_attacks --dump-specs > scripts/golden/table_attacks.specs"
    echo "       ./target/release/table_attacks --jobs 2 --json > scripts/golden/table_attacks.golden)"
    exit 1
}

echo "==> attack plane: verdict table is byte-identical to the committed golden"
./target/release/table_attacks --jobs 2 --json > target/attacks.lines || {
    echo "FAIL: table_attacks self-enforcement tripped (a family escaped the"
    echo "      hardened membrane, nothing escaped mips64, or a cell lost its verdict)"
    exit 1
}
cmp scripts/golden/table_attacks.golden target/attacks.lines || {
    echo "FAIL: attack verdicts differ from scripts/golden/table_attacks.golden"
    echo "      (a containment outcome or evidence counter changed; if intentional:"
    echo "       ./target/release/table_attacks --jobs 2 --json > scripts/golden/table_attacks.golden)"
    exit 1
}

echo "==> attack plane: weakened quarantine MUST let reuse-based UAF escape"
if ./target/release/table_attacks --jobs 2 --weaken-quarantine > /dev/null 2>&1; then
    echo "FAIL: --weaken-quarantine went undetected — the hardened membrane's"
    echo "      self-enforcement is broken (disabling quarantine must re-open UAF)"
    exit 1
fi

echo "==> attack plane: hardened verdicts are divergence-free under lockstep"
./target/release/table_attacks --jobs 2 --json --oracle lockstep \
    > target/attacks-lockstep.lines || {
    echo "FAIL: the lockstep oracle reported divergences over the attack table"
    exit 1
}
cmp scripts/golden/table_attacks.golden target/attacks-lockstep.lines || {
    echo "FAIL: attack verdicts change under the lockstep oracle"
    exit 1
}

echo "==> attack plane: hardened 8-seed fault campaign is clean under lockstep"
./target/release/fault_campaign --seeds 8 --jobs 2 --no-cache --hardened \
    --oracle lockstep --out target/faults-hardened.json || {
    echo "FAIL: the hardened membrane broke the fault campaign (host panics,"
    echo "      silent successes, or lockstep divergences under --hardened)"
    exit 1
}

echo "==> scenario plane: pinned table_server grid is byte-identical to the golden"
./target/release/run_specs --specs scripts/golden/scenario_pinned.specs \
    --jobs 2 --no-cache --shard 0/1 > target/scenario-pinned.lines
cmp scripts/golden/scenario_pinned.golden target/scenario-pinned.lines || {
    echo "FAIL: scenario output differs from scripts/golden/scenario_pinned.golden"
    echo "      (latency percentiles or scheduling changed; if intentional, regenerate:"
    echo "       ./target/release/run_specs --specs scripts/golden/scenario_pinned.specs \\"
    echo "           --jobs 2 --no-cache --shard 0/1 > scripts/golden/scenario_pinned.golden)"
    exit 1
}
./target/release/run_specs --specs scripts/golden/scenario_pinned.specs \
    --jobs 2 --no-cache --exec-mode single --shard 0/1 > target/scenario-singlestep.lines
cmp target/scenario-pinned.lines target/scenario-singlestep.lines || {
    echo "FAIL: scenario latency percentiles diverge between plain stepping"
    echo "      and the reference interpreter"
    exit 1
}
./target/release/table_server --dump-specs > target/scenario-specs.lines
cmp scripts/golden/scenario_pinned.specs target/scenario-specs.lines || {
    echo "FAIL: table_server spec grid differs from scripts/golden/scenario_pinned.specs"
    echo "      (if intentional, regenerate the specs AND the golden:"
    echo "       ./target/release/table_server --dump-specs > scripts/golden/scenario_pinned.specs)"
    exit 1
}

echo "==> golden: fig4 sampled sub-grid is byte-identical to the committed golden"
./target/release/run_specs --specs scripts/golden/fig4_pinned.specs \
    --jobs 2 --no-cache --shard 0/1 > target/fig4-pinned.lines
cmp scripts/golden/fig4_pinned.golden target/fig4-pinned.lines || {
    echo "FAIL: fig4 sampled output differs from scripts/golden/fig4_pinned.golden"
    echo "      (workload metrics changed; if intentional, regenerate the sample:"
    echo "       ./target/release/fig4 --dump-specs | awk 'NR % 9 == 1' \\"
    echo "           > scripts/golden/fig4_pinned.specs"
    echo "       ./target/release/run_specs --specs scripts/golden/fig4_pinned.specs \\"
    echo "           --jobs 2 --no-cache --shard 0/1 > scripts/golden/fig4_pinned.golden)"
    exit 1
}

echo "==> golden: fig5 capability CDF is byte-identical to the committed golden"
./target/release/fig5 --jobs 1 --json > target/fig5.lines
cmp scripts/golden/fig5.golden target/fig5.lines || {
    echo "FAIL: fig5 capability-size CDF differs from scripts/golden/fig5.golden"
    echo "      (derivation tracing changed; if intentional, regenerate:"
    echo "       ./target/release/fig5 --jobs 1 --json > scripts/golden/fig5.golden)"
    exit 1
}

echo "==> golden: cache sweep (with the D1 C256 column) is byte-identical to the committed golden"
./target/release/cache_sweep --json --no-cache > target/cache_sweep.lines
cmp scripts/golden/cache_sweep.golden target/cache_sweep.lines || {
    echo "FAIL: cache_sweep output differs from scripts/golden/cache_sweep.golden"
    echo "      (cache-model or capability-format metrics changed; if intentional, regenerate:"
    echo "       ./target/release/cache_sweep --json --no-cache > scripts/golden/cache_sweep.golden)"
    exit 1
}

echo "==> fleet: one long-lived worker per slot serves every unit byte-identically"
rm -rf target/fleet-ckpt
./target/release/fleet_run --specs scripts/golden/table1_pinned.specs \
    --workers 3 --unit-size 2 \
    > target/fleet-plain.lines 2> target/fleet-plain.err
cmp target/table1-pinned.lines target/fleet-plain.lines || {
    echo "FAIL: fleet_run output differs from the single-process run:"
    cat target/fleet-plain.err
    exit 1
}
# One spawn per unit would merge the same bytes, so only this counter shows
# that the 8 units reused the 3 slots' workers.
grep -q " spawns=3 " target/fleet-plain.err || {
    echo "FAIL: expected spawns=3 (one worker per slot) for 8 units on 3 slots:"
    cat target/fleet-plain.err
    exit 1
}

echo "==> fleet: chaos sweep (worker kills + garbage lines) merges byte-identically"
rm -rf target/fleet-ckpt
./target/release/fleet_run --specs scripts/golden/table1_pinned.specs \
    --workers 3 --unit-size 2 --chaos 7 \
    > target/fleet-chaos.lines 2> target/fleet-chaos.err
cmp target/table1-pinned.lines target/fleet-chaos.lines || {
    echo "FAIL: fleet_run --chaos output differs from the single-process run"
    echo "      (a recovery path corrupted the merge):"
    cat target/fleet-chaos.err
    exit 1
}
chaos_kills=$(sed -n 's/.*chaos_kills=\([0-9]*\).*/\1/p' target/fleet-chaos.err)
chaos_garbage=$(sed -n 's/.*chaos_garbage=\([0-9]*\).*/\1/p' target/fleet-chaos.err)
[ "${chaos_kills:-0}" -gt 0 ] && [ "${chaos_garbage:-0}" -gt 0 ] || {
    echo "FAIL: chaos seed 7 injected no worker kill or no garbage line —"
    echo "      the gate proved nothing. Summary was:"
    cat target/fleet-chaos.err
    exit 1
}
# The in-process fallback yields the same bytes, so only this counter shows
# that every chaos fault was recovered by re-dispatching to a worker.
grep -q " inprocess=0 " target/fleet-chaos.err || {
    echo "FAIL: chaos recovery fell back to in-process execution instead of"
    echo "      re-dispatching the unit. Summary was:"
    cat target/fleet-chaos.err
    exit 1
}

echo "==> fleet: resume redoes zero completed units and stays byte-identical"
rm -rf target/fleet-ckpt
if ./target/release/fleet_run --specs scripts/golden/table1_pinned.specs \
    --workers 1 --unit-size 2 --stop-after 3 \
    > /dev/null 2> target/fleet-interrupt.err; then
    echo "FAIL: an interrupted fleet sweep (--stop-after) must exit non-zero"
    exit 1
fi
completed=$(sed -n 's/.* completed=\([0-9]*\).*/\1/p' target/fleet-interrupt.err)
./target/release/fleet_run --specs scripts/golden/table1_pinned.specs \
    --workers 3 --unit-size 2 --resume \
    > target/fleet-resume.lines 2> target/fleet-resume.err
cmp target/table1-pinned.lines target/fleet-resume.lines || {
    echo "FAIL: resumed fleet output differs from the single-process run"
    cat target/fleet-resume.err
    exit 1
}
resumed=$(sed -n 's/.*resumed=\([0-9]*\).*/\1/p' target/fleet-resume.err)
[ "${completed:-0}" -gt 0 ] && [ "${resumed:-x}" = "${completed:-y}" ] || {
    echo "FAIL: the resumed sweep redid checkpointed units"
    echo "      (interrupted run completed ${completed:-?}, resume loaded ${resumed:-?}):"
    cat target/fleet-interrupt.err target/fleet-resume.err
    exit 1
}

echo "==> fleet: one torn spec line is skipped and counted, not fatal"
{
    head -3 scripts/golden/table1_pinned.specs
    echo '{"torn json'
} > target/fleet-torn.specs
./target/release/run_specs --specs target/fleet-torn.specs \
    --jobs 1 --no-cache --shard 0/1 \
    > target/fleet-torn.lines 2> target/fleet-torn.err || {
    echo "FAIL: run_specs aborted on a single malformed spec line"
    cat target/fleet-torn.err
    exit 1
}
grep -q "specs_rejected=1" target/fleet-torn.err || {
    echo "FAIL: the malformed spec line was not counted in specs_rejected"
    cat target/fleet-torn.err
    exit 1
}
[ "$(wc -l < target/fleet-torn.lines)" = "3" ] || {
    echo "FAIL: expected the 3 good specs to run despite the torn line"
    exit 1
}
if printf '{all bad\n' | ./target/release/run_specs --specs - > /dev/null 2>&1; then
    echo "FAIL: an all-malformed spec list must still exit non-zero"
    exit 1
fi

echo "CI: all gates passed"
