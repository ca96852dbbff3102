//! The **attack-outcome table**: every adversarial-corpus family run under
//! three ABI columns — legacy `mips64`, strict CheriABI (`purecap`) and the
//! hardened membrane (`purecap-hardened`) — with each cell scored by the
//! attack's own victim/canary protocol (`Defeated` / `Degraded` /
//! `Escaped`, see `cheri_corpus::attacks`).
//!
//! The binary is **self-enforcing**: it exits non-zero when any cell fails
//! to produce a verdict (host panic, load failure, divergence), when any
//! family escapes the hardened membrane, or when *no* family escapes
//! mips64 (the table would no longer be measuring an attack surface).
//! `--weaken-quarantine` disables the hardened quarantine so CI can prove
//! the enforcement trips: a weakened run MUST fail.
//!
//! Hardened cells also print the membrane's evidence counters (`repairs`,
//! `swept_caps`, `quarantine_bytes`) — deterministic, so the `--json`
//! output is byte-pinnable as a golden.

use cheri_bench::cli::{self, json_escape};
use cheri_corpus::attacks::{attack_suite, verdict, Verdict};
use cheri_corpus::suite::opts_for;
use cheri_kernel::AbiMode;
use cheriabi::harness::{MembraneMode, RunSpec};
use cheriabi::spec::ProgramSpec;

/// Instruction budget per attack (the swap family pushes pages around).
const ATTACK_BUDGET: u64 = 20_000_000;

/// The three table columns.
fn columns() -> [(&'static str, AbiMode, MembraneMode); 3] {
    [
        ("mips64", AbiMode::Mips64, MembraneMode::Strict),
        ("purecap", AbiMode::CheriAbi, MembraneMode::Strict),
        (
            "purecap-hardened",
            AbiMode::CheriAbi,
            MembraneMode::Hardened,
        ),
    ]
}

const USAGE: &str = "\n  \
    --weaken-quarantine  self-test: disable the hardened quarantine so\n                 \
    reuse-based UAF escapes again (this run MUST exit non-zero)";

fn main() {
    let mut weaken = false;
    let opts = cli::parse_env_with(USAGE, |flag, _| {
        let ours = flag == "--weaken-quarantine";
        weaken |= ours;
        Ok(ours)
    });

    let cases = attack_suite();
    let mut specs = Vec::new();
    for case in &cases {
        for (column, abi, mode) in columns() {
            let mut spec = RunSpec::new(
                format!("{}@{column}", case.name),
                ProgramSpec::Corpus {
                    case: case.name.clone(),
                },
                opts_for(abi),
                abi,
            )
            .with_budget(ATTACK_BUDGET)
            .with_abi_mode(mode);
            if weaken && mode == MembraneMode::Hardened {
                spec = spec.with_weaken_quarantine(true);
            }
            specs.push(spec);
        }
    }

    let Some(reports) = cli::run_specs(&cheri_bench::registry(), &specs, &opts) else {
        return;
    };

    let mut failures: Vec<String> = Vec::new();
    let mut mips_escapes = 0usize;
    if !opts.json {
        println!("Attack outcomes: adversarial corpus x ABI column");
        println!(
            "{:<16} {:>10} {:>10} {:>18}  evidence (hardened)",
            "family", "mips64", "purecap", "purecap-hardened"
        );
    }
    for (i, case) in cases.iter().enumerate() {
        let mut row = Vec::new();
        for (j, (column, _, mode)) in columns().into_iter().enumerate() {
            let report = &reports[i * 3 + j];
            let Some(v) = verdict(&report.outcome) else {
                failures.push(format!(
                    "{}@{column}: no verdict ({:?})",
                    case.name, report.outcome
                ));
                row.push(("-".to_string(), None));
                continue;
            };
            match (mode, v, column) {
                (MembraneMode::Hardened, Verdict::Escaped, _) => failures.push(format!(
                    "{}@{column}: escaped the hardened membrane",
                    case.name
                )),
                (_, Verdict::Escaped, "mips64") => mips_escapes += 1,
                _ => {}
            }
            row.push((v.to_string(), report.membrane));
            if opts.json {
                let evidence = match report.membrane {
                    Some(ev) => format!(
                        ",\"repairs\":{},\"swept_caps\":{},\"quarantine_bytes\":{}",
                        ev.repairs, ev.swept_caps, ev.quarantine_bytes
                    ),
                    None => String::new(),
                };
                println!(
                    "{{\"table\":\"table_attacks\",\"family\":\"{}\",\"column\":\"{column}\",\"verdict\":\"{v}\",\"goal\":\"{}\"{evidence}}}",
                    json_escape(case.family),
                    json_escape(case.goal)
                );
            }
        }
        if !opts.json {
            let evidence = row
                .iter()
                .find_map(|(_, m)| *m)
                .map(|ev| {
                    format!(
                        "repairs={} swept={} quarantined={}B",
                        ev.repairs, ev.swept_caps, ev.quarantine_bytes
                    )
                })
                .unwrap_or_default();
            println!(
                "{:<16} {:>10} {:>10} {:>18}  {}",
                case.family, row[0].0, row[1].0, row[2].0, evidence
            );
        }
    }
    if mips_escapes == 0 {
        failures.push("no family escaped mips64: the corpus is not attacking anything".to_string());
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("table_attacks: FAIL: {f}");
        }
        std::process::exit(1);
    }
    if !opts.json {
        println!();
        println!(
            "self-enforced: every family Defeated/Degraded under purecap-hardened,\n\
             {mips_escapes} families Escaped under mips64; a --weaken-quarantine run must fail."
        );
    }
}
