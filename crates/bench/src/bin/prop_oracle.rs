//! Property-fuzz harness for the differential oracle: random instruction
//! sequences run under per-step lockstep against the reference semantics,
//! with two machine-checked properties on every retired instruction:
//!
//! * **oracle cleanliness** — the fast machine (decoded regions, TLB,
//!   resident region) must never diverge from the reference interpreter;
//! * **capability monotonicity** — every *tagged* capability in the
//!   register file (including PCC and DDC) stays a subset of one of the
//!   machine's initial authority roots. Derivation can only narrow.
//!
//! Programs are drawn from a seeded strategy over a unit language (ALU
//! traffic, register-form `csetbounds` with lengths that sometimes exceed
//! the data capability, offset/address arithmetic, capability and scalar
//! loads/stores, forward branches, inspection ops, sealed-pair round
//! trips, and capability jumps). *Random* sealing would trap immediately
//! and drown the interesting traffic, so the `Sealed` unit is structured:
//! it seals through a dedicated sealer root (held in `$c6`, outside the
//! fuzzed registers) whose addressable range is all valid otypes, and
//! optionally unseals again — exercising otype match/mismatch on both
//! machines. `CapJump` derives a code capability from PCC (`cgetpcc` +
//! `csetaddr`) and transfers through `cjalr`/`cjr` to the start of a later
//! unit, forcing the fast path's decoded-region re-entry to agree with the
//! reference about mid-region entry points. Case 0 is always the
//! deterministic *widen probe* — narrow to 16 bytes, then ask for 64 — so
//! `--weaken-sem` (which disarms the fast path's bounds clamp) is
//! guaranteed at least one divergence regardless of the seed.
//!
//! On a failing case the strategy's shrinker (truncation, removal,
//! element-wise) minimises the unit sequence before reporting. Exits
//! non-zero iff any case fails, so CI runs it twice: once plain (must
//! pass) and once under `--weaken-sem` (must fail).
//!
//! Flags: `--cases N` (default 64), `--seed S` (default 0xC4E1), `--steps
//! N` per-case retirement budget (default 512), `--weaken-sem`, `--json`.

use cheri_cap::{CapFormat, CapSource, Capability, Perms, PrincipalId};
use cheri_cpu::{Cpu, Exit, RegFile};
use cheri_isa::{creg, ireg, Instr, Width};
use cheri_vm::{AsId, Backing, Prot, Vm};
use proptest::collection::{self, VecStrategy};
use proptest::{prop_oneof, BoxedStrategy, Strategy, TestRng};
use std::sync::Arc;

/// One generation unit: a short, self-contained burst of instructions.
/// Units (not raw instructions) are the shrink granularity, so removal
/// never strands a `csetbounds` without its length register.
#[derive(Clone, Debug)]
enum Unit {
    /// Load a small immediate into a temp.
    Li { rd: u8, imm: i64 },
    /// Three-register ALU op over the temps.
    Alu { op: u8, rd: u8, rs: u8, rt: u8 },
    /// Register-form `csetbounds` (the weaken hook's target): length is
    /// materialised into `$s0` first. Lengths range past the 4 KiB data
    /// capability, so narrowing, exact-rounding and trapping all occur.
    SetBounds {
        cd: u8,
        cb: u8,
        len: u64,
        exact: bool,
    },
    /// `cincoffset` by immediate (may wander out of bounds — dereference
    /// decides legality, not arithmetic).
    IncOffset { cd: u8, cb: u8, delta: i64 },
    /// `csetaddr` through `$s0`.
    SetAddr { cd: u8, cb: u8, addr: u64 },
    /// `candperm` through `$s0`.
    AndPerm { cd: u8, cb: u8, mask: u64 },
    /// `ccleartag` / `cmove` / `cfromptr`.
    Derive { op: u8, cd: u8, cb: u8, rs: u8 },
    /// Capability inspection (`cget*`, `ctestsubset`, `csub`).
    Inspect { op: u8, rd: u8, cb: u8, ct: u8 },
    /// Scalar load or store through a capability register.
    Mem {
        store: bool,
        r: u8,
        cb: u8,
        slot: u16,
        w: u8,
    },
    /// Capability load or store (CLC/CSC), 16-byte slots.
    CapMem {
        store: bool,
        ca: u8,
        cb: u8,
        slot: u8,
    },
    /// Forward conditional branch skipping up to `skip` following units.
    Branch { kind: u8, rs: u8, rt: u8, skip: u8 },
    /// Sealed-pair round trip through the sealer root (see [`sealer`]):
    /// point the sealer at `otype`, seal `cb` into `cd`, and (when
    /// `unseal` is set) unseal it back through the same otype. An unseal
    /// with `reseal_otype != otype` exercises the type-mismatch fault.
    Sealed {
        cd: u8,
        cb: u8,
        otype: u16,
        unseal: bool,
        reseal_otype: u16,
    },
    /// Capability control flow: derive a code capability from PCC, set
    /// its address to the start of a later unit (patched in [`flatten`],
    /// like [`Unit::Branch`] targets) and transfer through `cjalr`
    /// (linking into the next fuzzed capability register) or `cjr`.
    CapJump { link: bool, cd: u8, skip: u8 },
}

fn temp(r: u8) -> cheri_isa::IReg {
    ireg::temp(r % 4)
}

fn cap(r: u8) -> cheri_isa::CReg {
    creg::ptr(r % 6)
}

fn width(w: u8) -> Width {
    match w % 4 {
        0 => Width::B,
        1 => Width::H,
        2 => Width::W,
        _ => Width::D,
    }
}

/// Length register for materialised operands, outside the temp set so ALU
/// units never clobber a pending operand.
const LEN: cheri_isa::IReg = ireg::S0;

/// The sealer root's register: outside the six fuzzed capability
/// registers so derivation traffic never clobbers it; `Sealed` units
/// re-address it
/// in place (a `csetaddr` on a SEAL-bearing capability stays a subset of
/// itself, so the monotonicity invariant is undisturbed).
fn sealer() -> cheri_isa::CReg {
    creg::ptr(6)
}

impl Unit {
    /// Lowers the unit; branch targets get patched in [`flatten`].
    fn emit(&self, out: &mut Vec<Instr>) {
        match *self {
            Unit::Li { rd, imm } => out.push(Instr::Li { rd: temp(rd), imm }),
            Unit::Alu { op, rd, rs, rt } => {
                let (rd, rs, rt) = (temp(rd), temp(rs), temp(rt));
                out.push(match op % 8 {
                    0 => Instr::Add { rd, rs, rt },
                    1 => Instr::Sub { rd, rs, rt },
                    2 => Instr::Mul { rd, rs, rt },
                    3 => Instr::And { rd, rs, rt },
                    4 => Instr::Or { rd, rs, rt },
                    5 => Instr::Xor { rd, rs, rt },
                    6 => Instr::Sltu { rd, rs, rt },
                    _ => Instr::Srlv { rd, rs, rt },
                });
            }
            Unit::SetBounds { cd, cb, len, exact } => {
                out.push(Instr::Li {
                    rd: LEN,
                    imm: i64::try_from(len).expect("bounded length"),
                });
                out.push(if exact {
                    Instr::CSetBoundsExact {
                        cd: cap(cd),
                        cb: cap(cb),
                        rs: LEN,
                    }
                } else {
                    Instr::CSetBounds {
                        cd: cap(cd),
                        cb: cap(cb),
                        rs: LEN,
                    }
                });
            }
            Unit::IncOffset { cd, cb, delta } => out.push(Instr::CIncOffsetImm {
                cd: cap(cd),
                cb: cap(cb),
                imm: delta,
            }),
            Unit::SetAddr { cd, cb, addr } => {
                out.push(Instr::Li {
                    rd: LEN,
                    imm: i64::try_from(addr).expect("bounded address"),
                });
                out.push(Instr::CSetAddr {
                    cd: cap(cd),
                    cb: cap(cb),
                    rs: LEN,
                });
            }
            Unit::AndPerm { cd, cb, mask } => {
                out.push(Instr::Li {
                    rd: LEN,
                    imm: i64::from(mask as u32),
                });
                out.push(Instr::CAndPerm {
                    cd: cap(cd),
                    cb: cap(cb),
                    rs: LEN,
                });
            }
            Unit::Derive { op, cd, cb, rs } => out.push(match op % 3 {
                0 => Instr::CClearTag {
                    cd: cap(cd),
                    cb: cap(cb),
                },
                1 => Instr::CMove {
                    cd: cap(cd),
                    cb: cap(cb),
                },
                _ => Instr::CFromPtr {
                    cd: cap(cd),
                    cb: cap(cb),
                    rs: temp(rs),
                },
            }),
            Unit::Inspect { op, rd, cb, ct } => out.push(match op % 9 {
                0 => Instr::CGetAddr {
                    rd: temp(rd),
                    cb: cap(cb),
                },
                1 => Instr::CGetBase {
                    rd: temp(rd),
                    cb: cap(cb),
                },
                2 => Instr::CGetLen {
                    rd: temp(rd),
                    cb: cap(cb),
                },
                3 => Instr::CGetPerm {
                    rd: temp(rd),
                    cb: cap(cb),
                },
                4 => Instr::CGetTag {
                    rd: temp(rd),
                    cb: cap(cb),
                },
                5 => Instr::CGetOffset {
                    rd: temp(rd),
                    cb: cap(cb),
                },
                6 => Instr::CTestSubset {
                    rd: temp(rd),
                    cb: cap(cb),
                    ct: cap(ct),
                },
                7 => Instr::CSub {
                    rd: temp(rd),
                    cb: cap(cb),
                    ct: cap(ct),
                },
                _ => Instr::CGetPcc { cd: cap(ct) },
            }),
            Unit::Mem {
                store,
                r,
                cb,
                slot,
                w,
            } => {
                let w = width(w);
                let off = i32::from(slot % 512) * 8;
                if store {
                    out.push(Instr::CStore {
                        rs: temp(r),
                        cb: cap(cb),
                        off,
                        w,
                    });
                } else {
                    out.push(Instr::CLoad {
                        rd: temp(r),
                        cb: cap(cb),
                        off,
                        w,
                        signed: false,
                    });
                }
            }
            Unit::CapMem {
                store,
                ca,
                cb,
                slot,
            } => {
                let off = i32::from(slot % 255) * 16;
                if store {
                    out.push(Instr::Csc {
                        cs: cap(ca),
                        cb: cap(cb),
                        off,
                    });
                } else {
                    out.push(Instr::Clc {
                        cd: cap(ca),
                        cb: cap(cb),
                        off,
                    });
                }
            }
            Unit::Branch {
                kind,
                rs,
                rt,
                skip: _,
            } => {
                // Target 0 is a placeholder; flatten() patches it to a
                // forward instruction index.
                let (rs, rt) = (temp(rs), temp(rt));
                out.push(match kind % 4 {
                    0 => Instr::Beq { rs, rt, target: 0 },
                    1 => Instr::Bne { rs, rt, target: 0 },
                    2 => Instr::Blez { rs, target: 0 },
                    _ => Instr::Bgtz { rs, target: 0 },
                });
            }
            Unit::Sealed {
                cd,
                cb,
                otype,
                unseal,
                reseal_otype,
            } => {
                out.push(Instr::Li {
                    rd: LEN,
                    imm: i64::from(otype),
                });
                out.push(Instr::CSetAddr {
                    cd: sealer(),
                    cb: sealer(),
                    rs: LEN,
                });
                out.push(Instr::CSeal {
                    cd: cap(cd),
                    cs: cap(cb),
                    ct: sealer(),
                });
                if unseal {
                    // Usually the matching otype (a clean round trip);
                    // sometimes a mismatch, which must fault identically
                    // on both machines.
                    out.push(Instr::Li {
                        rd: LEN,
                        imm: i64::from(reseal_otype),
                    });
                    out.push(Instr::CSetAddr {
                        cd: sealer(),
                        cb: sealer(),
                        rs: LEN,
                    });
                    out.push(Instr::CUnseal {
                        cd: cap(cd),
                        cs: cap(cd),
                        ct: sealer(),
                    });
                }
            }
            Unit::CapJump { link, cd, skip: _ } => {
                // The Li immediate 0 is a placeholder; flatten() patches
                // it to the absolute address of a later unit's start.
                out.push(Instr::CGetPcc { cd: cap(cd) });
                out.push(Instr::Li { rd: LEN, imm: 0 });
                out.push(Instr::CSetAddr {
                    cd: cap(cd),
                    cb: cap(cd),
                    rs: LEN,
                });
                if link {
                    out.push(Instr::CJalr {
                        cd: cap(cd.wrapping_add(1)),
                        cb: cap(cd),
                    });
                } else {
                    out.push(Instr::CJr { cb: cap(cd) });
                }
            }
        }
    }
}

/// Base address the fuzz program is mapped at (see [`machine`]).
const CODE_BASE: u64 = 0x10000;

/// Lowers a unit sequence to a program: units in order, branch targets
/// resolved to the start of a later unit (or the terminating `syscall`),
/// capability-jump addresses materialised the same way (as absolute
/// addresses rather than instruction indices), and a `syscall` appended
/// so clean runs exit the step loop.
fn flatten(units: &[Unit]) -> Vec<Instr> {
    let mut starts = Vec::with_capacity(units.len());
    let mut code = Vec::new();
    let mut branches = Vec::new();
    let mut jumps = Vec::new();
    for (i, unit) in units.iter().enumerate() {
        starts.push(code.len());
        match unit {
            Unit::Branch { skip, .. } => branches.push((code.len(), i, *skip)),
            // The placeholder Li is the unit's second instruction.
            Unit::CapJump { skip, .. } => jumps.push((code.len() + 1, i, *skip)),
            _ => {}
        }
        unit.emit(&mut code);
    }
    let end = u32::try_from(code.len()).expect("short program");
    let resolve = |i: usize, skip: u8| -> u32 {
        let dest = i + 1 + usize::from(skip % 4);
        starts
            .get(dest)
            .map_or(end, |&s| u32::try_from(s).expect("short program"))
    };
    for (at, i, skip) in branches {
        let target = resolve(i, skip);
        match &mut code[at] {
            Instr::Beq { target: t, .. }
            | Instr::Bne { target: t, .. }
            | Instr::Blez { target: t, .. }
            | Instr::Bgtz { target: t, .. } => *t = target,
            other => unreachable!("branch unit emitted {other:?}"),
        }
    }
    for (at, i, skip) in jumps {
        let addr = CODE_BASE + u64::from(resolve(i, skip)) * 4;
        match &mut code[at] {
            Instr::Li { rd: _, imm } => *imm = i64::try_from(addr).expect("short program"),
            other => unreachable!("capjump unit emitted {other:?}"),
        }
    }
    code.push(Instr::Syscall);
    code
}

/// The unit strategy. Weights come from repetition inside `prop_oneof!`:
/// capability derivation and memory traffic dominate, because that is
/// where the fast path has machinery (regions, TLB, store verification)
/// to disagree with the reference.
fn unit_strategy() -> BoxedStrategy<Unit> {
    prop_oneof![
        (0u8..4, -256i64..256).prop_map(|(rd, imm)| Unit::Li { rd, imm }),
        (0u8..8, 0u8..4, 0u8..4, 0u8..4).prop_map(|(op, rd, rs, rt)| Unit::Alu { op, rd, rs, rt }),
        // Register-form csetbounds: twice the weight, lengths up to 2x the
        // 4 KiB data capability so both clamping and trapping paths run.
        (0u8..6, 0u8..6, 0u64..8192, proptest::any::<bool>())
            .prop_map(|(cd, cb, len, exact)| Unit::SetBounds { cd, cb, len, exact }),
        (0u8..6, 0u8..6, 0u64..4096, Just(false))
            .prop_map(|(cd, cb, len, exact)| Unit::SetBounds { cd, cb, len, exact }),
        (0u8..6, 0u8..6, -64i64..4160).prop_map(|(cd, cb, delta)| Unit::IncOffset {
            cd,
            cb,
            delta
        }),
        (0u8..6, 0u8..6, 0x1F000u64..0x22000).prop_map(|(cd, cb, addr)| Unit::SetAddr {
            cd,
            cb,
            addr
        }),
        (0u8..6, 0u8..6, 0u64..0x1_0000).prop_map(|(cd, cb, mask)| Unit::AndPerm { cd, cb, mask }),
        (0u8..3, 0u8..6, 0u8..6, 0u8..4).prop_map(|(op, cd, cb, rs)| Unit::Derive {
            op,
            cd,
            cb,
            rs
        }),
        (0u8..9, 0u8..4, 0u8..6, 0u8..6).prop_map(|(op, rd, cb, ct)| Unit::Inspect {
            op,
            rd,
            cb,
            ct
        }),
        (proptest::any::<bool>(), 0u8..4, 0u8..6, 0u16..512, 0u8..4).prop_map(
            |(store, r, cb, slot, w)| Unit::Mem {
                store,
                r,
                cb,
                slot,
                w
            }
        ),
        (proptest::any::<bool>(), 0u8..4, 0u8..6, 0u16..512, 0u8..4).prop_map(
            |(store, r, cb, slot, w)| Unit::Mem {
                store,
                r,
                cb,
                slot,
                w
            }
        ),
        (proptest::any::<bool>(), 0u8..6, 0u8..6, 0u8..255).prop_map(|(store, ca, cb, slot)| {
            Unit::CapMem {
                store,
                ca,
                cb,
                slot,
            }
        }),
        (0u8..4, 0u8..4, 0u8..4, 0u8..4).prop_map(|(kind, rs, rt, skip)| Unit::Branch {
            kind,
            rs,
            rt,
            skip
        }),
        // Sealed pairs: mostly matching round trips (reseal_otype ==
        // otype would always match, so draw both and let collisions
        // produce the clean path and misses the type fault).
        (0u8..6, 0u8..6, 0u16..64, proptest::any::<bool>(), 0u16..64).prop_map(
            |(cd, cb, otype, unseal, reseal_otype)| Unit::Sealed {
                cd,
                cb,
                otype,
                unseal,
                reseal_otype: if reseal_otype % 2 == 0 {
                    otype
                } else {
                    reseal_otype
                },
            }
        ),
        (proptest::any::<bool>(), 0u8..6, 0u8..4).prop_map(|(link, cd, skip)| Unit::CapJump {
            link,
            cd,
            skip
        }),
    ]
    .boxed()
}

use proptest::Just;

fn program_strategy() -> VecStrategy<BoxedStrategy<Unit>> {
    collection::vec(unit_strategy(), 1..24)
}

/// The deterministic widen probe (always case 0): narrow `$c14` to 16
/// bytes, then derive a 64-byte capability from it. Correct semantics
/// trap on the second `csetbounds`; `--weaken-sem` silently widens, which
/// both the lockstep oracle and the monotonicity invariant must catch.
fn widen_probe() -> Vec<Unit> {
    vec![
        Unit::SetBounds {
            cd: 1,
            cb: 0,
            len: 16,
            exact: false,
        },
        Unit::SetBounds {
            cd: 2,
            cb: 1,
            len: 64,
            exact: false,
        },
    ]
}

/// Builds the fuzz machine: code at 0x10000 under a 4 KiB executable PCC,
/// one 4 KiB rw data page at 0x20000 held by `$c13`, purecap (NULL DDC)
/// or hybrid (full DDC) by flag — mirroring the cpu crate's test machine.
fn machine(code: Vec<Instr>, purecap: bool) -> (Cpu, Vm, AsId, RegFile) {
    let mut vm = Vm::new(128);
    let id = vm.create_space(PrincipalId::from_raw(1), CapFormat::C128);
    let text: Vec<u8> = (0..u32::try_from(code.len()).expect("short program"))
        .flat_map(u32::to_le_bytes)
        .collect();
    vm.map(
        id,
        Some(0x10000),
        (code.len() as u64 * 4).max(4096),
        Prot::rx(),
        Backing::Image {
            data: Arc::new(text),
            offset: 0,
        },
        "text",
    )
    .expect("map text");
    vm.map(id, Some(0x20000), 4096, Prot::rw(), Backing::Zero, "data")
        .expect("map data");
    let mut cpu = Cpu::new();
    cpu.register_code(id, 0x10000, Arc::new(code));
    let mut rf = RegFile::new(CapFormat::C128);
    let root = vm.space(id).root;
    rf.pcc = root
        .with_addr(0x10000)
        .set_bounds(0x1000, false)
        .expect("pcc bounds")
        .and_perms(Perms::user_code());
    rf.pc = 0x10000;
    rf.ddc = if purecap {
        Capability::null(CapFormat::C128)
    } else {
        root.with_source(CapSource::Exec)
    };
    rf.wc(
        creg::ptr(0),
        root.with_addr(0x20000)
            .set_bounds(4096, true)
            .expect("data cap"),
    );
    // The sealer root: SEAL/UNSEAL authority over a small otype range,
    // held outside the six fuzzed registers (see `SEALER`).
    rf.wc(
        sealer(),
        root.with_addr(0)
            .set_bounds(4096, true)
            .expect("sealer cap")
            .and_perms(Perms::SEAL | Perms::UNSEAL),
    );
    (cpu, vm, id, rf)
}

/// Runs one unit sequence under the per-step oracle. Returns a failure
/// description if either property broke, `None` on a clean run (clean
/// includes guest traps: a capability fault both machines agree on is
/// the architecture working).
fn run_case(units: &[Unit], purecap: bool, weaken: bool, steps: u64) -> Option<String> {
    let (mut cpu, mut vm, id, mut rf) = machine(flatten(units), purecap);
    cpu.set_weaken_sem(weaken);
    cpu.set_lockstep(1, true);
    // Everything a correct run can ever hold must stay inside these.
    let mut authority = vec![rf.pcc, rf.c(creg::ptr(0)), rf.c(sealer())];
    if rf.ddc.tag() {
        authority.push(rf.ddc);
    }
    loop {
        let before = cpu.stats.instret;
        let exit = cpu.run(&mut vm, id, &mut rf, 1);
        if let Some(d) = cpu.take_divergence() {
            return Some(format!("oracle: {d}"));
        }
        let caps = rf.caps.iter().skip(1).chain([&rf.pcc, &rf.ddc]).enumerate();
        for (i, c) in caps {
            if c.tag() && !c.is_sealed() && !authority.iter().any(|a| c.is_subset_of(a)) {
                return Some(format!(
                    "monotonicity: slot {i} holds a tagged capability outside every \
                     authority root: {c:?}"
                ));
            }
        }
        match exit {
            Exit::InstrLimit if cpu.stats.instret > before => {}
            Exit::Syscall | Exit::Break | Exit::Trap(_) | Exit::InstrLimit => return None,
        }
        if cpu.stats.instret >= steps {
            return None;
        }
    }
}

/// Shrinks a failing unit sequence to a local minimum: repeatedly adopt
/// the first strictly-smaller candidate that still fails, bounded by a
/// candidate-evaluation budget so pathological cases terminate.
fn shrink_failure(
    mut units: Vec<Unit>,
    mut detail: String,
    purecap: bool,
    weaken: bool,
    steps: u64,
) -> (Vec<Unit>, String) {
    let strategy = program_strategy();
    let mut budget = 256u32;
    'outer: while budget > 0 {
        for cand in strategy.shrink(&units) {
            if budget == 0 {
                break 'outer;
            }
            budget -= 1;
            if let Some(d) = run_case(&cand, purecap, weaken, steps) {
                units = cand;
                detail = d;
                continue 'outer;
            }
        }
        break;
    }
    (units, detail)
}

struct Opts {
    cases: u64,
    seed: u64,
    steps: u64,
    weaken: bool,
    json: bool,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut opts = Opts {
        cases: 64,
        seed: 0xC4E1,
        steps: 512,
        weaken: false,
        json: false,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut num = |name: &str| {
            args.next()
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("{name} needs a number"))
        };
        match arg.as_str() {
            "--cases" => opts.cases = num("--cases")?,
            "--seed" => opts.seed = num("--seed")?,
            "--steps" => opts.steps = num("--steps")?.max(1),
            "--weaken-sem" => opts.weaken = true,
            "--json" => opts.json = true,
            "--help" | "-h" => {
                println!(
                    "prop_oracle: property-fuzz the differential oracle\n  \
                     --cases N      generated cases (default 64; case 0 is the widen probe)\n  \
                     --seed S       base RNG seed (default 0xC4E1)\n  \
                     --steps N      per-case retirement budget (default 512)\n  \
                     --weaken-sem   self-test: disarm the csetbounds clamp; the run must fail\n  \
                     --json         machine-readable summary line"
                );
                std::process::exit(0);
            }
            other => return Err(format!("prop_oracle: unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

fn main() {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let strategy = program_strategy();
    let mut failures = 0u64;
    for case in 0..opts.cases {
        // Alternate ABIs so both the NULL-DDC and full-DDC legacy paths
        // see traffic; case 0 is the deterministic widen probe.
        let purecap = case % 2 == 0;
        let units = if case == 0 {
            widen_probe()
        } else {
            strategy.generate(&mut TestRng::new(opts.seed.wrapping_add(case)))
        };
        let Some(detail) = run_case(&units, purecap, opts.weaken, opts.steps) else {
            continue;
        };
        failures += 1;
        let (min, detail) = shrink_failure(units, detail, purecap, opts.weaken, opts.steps);
        eprintln!(
            "prop_oracle: case #{case} ({}) FAILED: {detail}\n  minimal sequence ({} units): {min:?}",
            if purecap { "purecap" } else { "hybrid" },
            min.len(),
        );
    }
    if opts.json {
        println!(
            "{{\"campaign\":\"prop_oracle\",\"cases\":{},\"seed\":{},\"weaken_sem\":{},\"failures\":{failures}}}",
            opts.cases, opts.seed, opts.weaken
        );
    } else {
        println!(
            "prop_oracle: {} cases (seed {:#x}{}) — {failures} failure(s)",
            opts.cases,
            opts.seed,
            if opts.weaken { ", weakened" } else { "" }
        );
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
