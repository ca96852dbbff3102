//! Static per-op register/memory effects, declared beside each handler.
//!
//! Every entry in the `define_ops!` list in [`crate::ops`] carries a
//! [`RegEffects`] clause naming the integer registers the handler reads and
//! writes and whether it touches capability state, data memory, control
//! flow, or exits the run loop. The template compiler in `cheri-cpu` plans
//! register residency from these sets; because the clause lives on the same
//! macro entry as the handler body (the one body both the fast machine and
//! `RefInterp` execute), the metadata cannot drift from the semantics
//! without the drift-guard test in `ops` failing.

use cheri_isa::IReg;

/// Bitmask over the 32 integer registers.
pub type RegSet = u32;

/// The statically declared effects of one instruction handler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegEffects {
    /// Integer registers the handler may read (bit `i` = `$i`).
    pub int_reads: RegSet,
    /// Integer registers the handler may write (bit `i` = `$i`).
    pub int_writes: RegSet,
    /// Touches capability state: reads or writes a capability register,
    /// PCC or DDC — including handlers that can raise a capability fault
    /// from a derivation check.
    pub caps: bool,
    /// Performs a data-memory access (and can therefore trap on
    /// translation or bounds).
    pub mem: bool,
    /// May redirect control flow (branch, jump, run-loop exit).
    pub control: bool,
    /// Leaves the run loop (`syscall` / `break`).
    pub exit: bool,
    /// May replace PCC (a capability jump): the stepper's fetch window,
    /// checked against the old PCC's bounds, must not outlive it.
    pub pcc: bool,
}

impl RegEffects {
    /// No declared effects (the `nop` baseline every clause builds on).
    pub const NONE: RegEffects = RegEffects {
        int_reads: 0,
        int_writes: 0,
        caps: false,
        mem: false,
        control: false,
        exit: false,
        pcc: false,
    };

    /// Adds an integer-register read.
    #[must_use]
    pub const fn ri(mut self, r: IReg) -> RegEffects {
        self.int_reads |= 1 << r.0;
        self
    }

    /// Adds an integer-register write.
    #[must_use]
    pub const fn wi(mut self, r: IReg) -> RegEffects {
        self.int_writes |= 1 << r.0;
        self
    }

    /// Marks capability-state involvement.
    #[must_use]
    pub const fn caps(mut self) -> RegEffects {
        self.caps = true;
        self
    }

    /// Marks a data-memory access.
    #[must_use]
    pub const fn mem(mut self) -> RegEffects {
        self.mem = true;
        self
    }

    /// Marks possible control transfer.
    #[must_use]
    pub const fn ctl(mut self) -> RegEffects {
        self.control = true;
        self
    }

    /// Marks a possible PCC replacement (implies capability state and
    /// control transfer).
    #[must_use]
    pub const fn pcc(mut self) -> RegEffects {
        self.pcc = true;
        self.caps = true;
        self.control = true;
        self
    }

    /// Marks a run-loop exit (implies control transfer).
    #[must_use]
    pub const fn exit(mut self) -> RegEffects {
        self.exit = true;
        self.control = true;
        self
    }

    /// Whether the handler's whole effect is captured by the declared
    /// integer read/write sets plus (optionally) a control transfer. Such
    /// a handler can never trap: it touches no memory and no capability
    /// state, so there is no check to fail, and the template compiler
    /// takes it into a register-resident trace as is (data accesses and
    /// capability-register ops it admits by name, with in-trace guards
    /// where they can fail).
    #[must_use]
    pub const fn is_pure_int(&self) -> bool {
        !self.caps && !self.mem && !self.exit
    }
}

/// Shorthand constructor for effects clauses: `eff().ri(rs).wi(rd)`.
#[must_use]
pub const fn eff() -> RegEffects {
    RegEffects::NONE
}
