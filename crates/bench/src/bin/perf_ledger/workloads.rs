//! The five workloads: each builds its spec list from the seed alone.
//!
//! Each one stresses a different layer (see README.md): `bodiag-boot` is
//! kernel construction and teardown, `fig4-interp` the interpreter tiers,
//! `server-sched` the scheduler, pipes, syscalls and swap without batching
//! or templates, `corpus-cache` the report cache's read and write paths,
//! and `corpus-fleet` subprocess dispatch and checkpointing.

use crate::stats::splitmix64;
use cheri_isa::codegen::CodegenOpts;
use cheri_kernel::{AbiMode, KernelConfig};
use cheri_workloads::trials::{trial_specs, Trial};
use cheriabi::harness::RunSpec;
use cheriabi::spec::ProgramSpec;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Table 3: 3,492 tiny BOdiagsuite cases, dominated by boot/teardown.
    BodiagBoot,
    /// Figure 4: 130 workload runs, dominated by `Kernel::run`.
    Fig4Interp,
    /// 108 multi-tenant minidb scenarios: scheduler, pipes, syscalls, swap.
    ServerSched,
    /// Table 1 through a warm report cache with ~5 % of entries evicted.
    CorpusCache,
    /// Table 1 through the fleet's worker subprocesses.
    CorpusFleet,
}

impl Workload {
    /// Every workload, in the order the default run takes them.
    pub const ALL: [Workload; 5] = [
        Workload::BodiagBoot,
        Workload::Fig4Interp,
        Workload::ServerSched,
        Workload::CorpusCache,
        Workload::CorpusFleet,
    ];

    /// Command-line and metric-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BodiagBoot => "bodiag-boot",
            Workload::Fig4Interp => "fig4-interp",
            Workload::ServerSched => "server-sched",
            Workload::CorpusCache => "corpus-cache",
            Workload::CorpusFleet => "corpus-fleet",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Digest ([`crate::stats::digest`]) of the reference sweep at the
    /// default seed, 1. A change to any deterministic report line (outcome,
    /// console, guest metrics, scenario percentiles) changes it.
    pub fn pinned_digest(self) -> u64 {
        match self {
            Workload::BodiagBoot => 0x2dd4_a5b7_d0ca_a64d,
            Workload::Fig4Interp => 0x4ae0_2880_43a7_6d08,
            Workload::ServerSched => 0x30b2_6003_aed2_9538,
            Workload::CorpusCache | Workload::CorpusFleet => 0x766d_3db5_d54e_950c,
        }
    }

    /// The workload's spec list for `seed`, in canonical order. The seed is
    /// stamped into every `RunSpec.seed` (and picks the Figure 4 and
    /// scenario seeds); the submission order is shuffled separately by
    /// [`submission_order`].
    pub fn specs(self, seed: u64) -> Vec<RunSpec> {
        match self {
            Workload::BodiagBoot => {
                stamp(bodiagsuite::table3_specs(&bodiagsuite::all_cases()), seed)
            }
            Workload::Fig4Interp => {
                let mut trials: Vec<Trial> = cheri_workloads::all()
                    .iter()
                    .map(Trial::from_workload)
                    .collect();
                trials.push(Trial::new(
                    "initdb-dynamic",
                    ProgramSpec::InitdbDynamic { base_records: 360 },
                ));
                trial_specs(&trials, &drawn_seeds::<5>(seed))
            }
            Workload::ServerSched => server_specs(seed),
            Workload::CorpusCache | Workload::CorpusFleet => {
                use cheri_corpus::families::{freebsd_suite, libcxx_suite};
                use cheri_corpus::minidb::pg_regress_suite;
                use cheri_corpus::suite::suite_specs;
                let mut specs = Vec::new();
                for cases in [freebsd_suite(), pg_regress_suite(), libcxx_suite()] {
                    for abi in [AbiMode::Mips64, AbiMode::CheriAbi] {
                        specs.extend(suite_specs(&cases, abi));
                    }
                }
                stamp(specs, seed)
            }
        }
    }
}

fn stamp(specs: Vec<RunSpec>, seed: u64) -> Vec<RunSpec> {
    specs.into_iter().map(|s| s.with_seed(seed)).collect()
}

/// `N` guest seeds drawn from `seed`, with seed `i` ≡ `i` (mod `N`). The
/// Figure 4 `initdb-dynamic` record count follows `seed % 5`, so five
/// distinct residues keep the workload's total size the same at every
/// benchmark seed.
fn drawn_seeds<const N: usize>(seed: u64) -> [u64; N] {
    std::array::from_fn(|i| N as u64 * (splitmix64(seed.wrapping_add(i as u64)) % 1000) + i as u64)
}

/// {mips64, purecap} × {1, 2, 4} clients × {get, put, mixed} × swap
/// {off, on} × 3 seeds drawn from `seed`: 108 scenarios of 24 queries each
/// over 6-byte pipes, so every request crosses block/wake scheduling.
///
/// No more than 4 clients: at 8 and 16, guest cycles vary by ~70 between
/// identical runs (`Vm::destroy_space` frees frames in `HashMap` order, so
/// the frames later processes get, and their physically indexed cache
/// behaviour, differ run to run), and those lines could never match the
/// reference.
fn server_specs(seed: u64) -> Vec<RunSpec> {
    let tight_pipes = KernelConfig {
        pipe_capacity: 6,
        ..KernelConfig::default()
    };
    let mut specs = Vec::with_capacity(108);
    for (abi, opts) in [
        (AbiMode::Mips64, CodegenOpts::mips64()),
        (AbiMode::CheriAbi, CodegenOpts::purecap()),
    ] {
        for clients in [1u64, 2, 4] {
            for mix in ["get", "put", "mixed"] {
                for swap in [false, true] {
                    for guest_seed in drawn_seeds::<3>(seed) {
                        let suffix = if swap { "-swap" } else { "" };
                        specs.push(
                            RunSpec::new(
                                format!("server-{abi}-c{clients}-{mix}{suffix}-s{guest_seed}"),
                                ProgramSpec::Scenario {
                                    clients,
                                    queries: 24,
                                    mix: mix.to_string(),
                                    swap_pressure: swap,
                                },
                                opts,
                                abi,
                            )
                            .with_seed(guest_seed)
                            .with_config(tight_pipes),
                        );
                    }
                }
            }
        }
    }
    specs
}

/// At most 16 evenly spaced specs of `specs`: the `--smoke` list.
pub fn smoke(specs: Vec<RunSpec>) -> Vec<RunSpec> {
    let step = specs.len().div_ceil(16).max(1);
    specs.into_iter().step_by(step).collect()
}

/// The seeded submission order of `n` specs: a Fisher–Yates shuffle, the
/// same for every sweep of one run.
pub fn submission_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = splitmix64(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

/// The specs whose cache entries are evicted before sweep `sweep` of the
/// corpus-cache workload: a seeded twentieth of `0..n`, distinct, sorted.
/// A fresh twentieth per sweep, so each run averages over many subsets
/// instead of timing one seed-dependent twentieth.
///
/// A twentieth, not the tenth a rerun after a small edit might miss: each
/// miss stores a new cache file, and file creation on a shared virtual
/// disk swings from ~20 µs to ~400 µs from one minute to the next. At a
/// tenth those stores moved the median sweep by up to a fifth between
/// identical runs; at a twentieth they move it half as much, while every
/// sweep still runs the store path.
pub fn cache_victims(n: usize, seed: u64, sweep: usize) -> Vec<usize> {
    let mut victims = submission_order(n, splitmix64(seed ^ ((sweep as u64) << 32)));
    victims.truncate(n.div_ceil(20));
    victims.sort_unstable();
    victims
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_lists_are_deterministic_and_large_enough() {
        for w in Workload::ALL {
            let a = w.specs(7);
            assert!(a.len() >= 100, "{}: {} specs", w.name(), a.len());
            assert_eq!(a, w.specs(7), "{}", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(smoke(a).len() <= 16);
        }
        assert_eq!(Workload::BodiagBoot.specs(1).len(), 3492);
        assert_eq!(Workload::Fig4Interp.specs(1).len(), 130);
        assert_eq!(Workload::ServerSched.specs(1).len(), 108);
        assert_eq!(Workload::CorpusCache.specs(1).len(), 1218);
        // The seed reaches the specs.
        assert_ne!(Workload::Fig4Interp.specs(1), Workload::Fig4Interp.specs(2));
        assert!(Workload::BodiagBoot.specs(9).iter().all(|s| s.seed == 9));
    }

    #[test]
    fn shuffles_are_seeded_permutations() {
        let order = submission_order(1218, 3);
        assert_eq!(order, submission_order(1218, 3));
        assert_ne!(order, submission_order(1218, 4));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1218).collect::<Vec<_>>());

        let victims = cache_victims(1218, 3, 0);
        assert_eq!(victims.len(), 61);
        assert_eq!(victims, cache_victims(1218, 3, 0));
        assert_ne!(victims, cache_victims(1218, 3, 1));
        assert!(victims.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn fig4_seeds_cover_every_initdb_residue() {
        for seed in [1, 2, 99] {
            let mut residues: Vec<u64> = drawn_seeds::<5>(seed).iter().map(|s| s % 5).collect();
            residues.sort_unstable();
            assert_eq!(residues, [0, 1, 2, 3, 4]);
        }
    }
}
