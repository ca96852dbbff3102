//! # cheri-rtld — the run-time linker
//!
//! Loads a [`Program`] (a set of [`cheri_isa::Object`]s) into an address
//! space and performs the §3/§4 "dynamic linking" derivations:
//!
//! * maps each object's text (read/execute) and data+BSS (read/write)
//!   segments;
//! * builds the **capability GOT**: every slot is initialised with a
//!   capability derived from the mapping capabilities — *data* symbols get
//!   bounds narrowed to the symbol ("creates subsets of the program and
//!   library data capabilities for each global variable"), *function*
//!   symbols get bounds of the whole containing object ("we bound function
//!   symbols' resolved capabilities to the shared object", preserving
//!   intra-object PC-relative idioms); under the legacy ABI the slots are
//!   plain 64-bit addresses;
//! * applies data relocations: "global variables containing pointers are
//!   initialized during process startup, as tags are not preserved on
//!   disk";
//! * allocates per-object **TLS blocks** and publishes a capability bounded
//!   to each block in the object's reserved `__tls_<name>` GOT slot.
//!
//! Every installed capability is reported through a callback so the kernel
//! can record it in the derivation trace (Figure 5 "glob relocs" series).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cheri_cap::{CapSource, Capability, Perms};
use cheri_isa::codegen::Abi;
use cheri_isa::{GotTable, Instr, Object, ObjectBuilder, SymKind};
use cheri_vm::{AsId, Backing, Prot, Vm, VmError};
use std::cell::RefCell;
use std::error::Error;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// A linkable program: one or more objects plus the merged GOT namespace.
#[derive(Clone, Debug)]
pub struct Program {
    /// Program name.
    pub name: String,
    /// All objects (executable first by convention).
    pub objects: Vec<Object>,
    /// Entry-point symbol name (must exist in some object).
    pub entry: String,
}

/// Builder that wires objects to a shared GOT namespace.
pub struct ProgramBuilder {
    name: String,
    got: Rc<RefCell<GotTable>>,
    objects: Vec<Object>,
    entry: Option<String>,
}

impl fmt::Debug for ProgramBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ProgramBuilder({}, {} objects)",
            self.name,
            self.objects.len()
        )
    }
}

impl ProgramBuilder {
    /// Starts a program called `name`.
    #[must_use]
    pub fn new(name: &str) -> ProgramBuilder {
        ProgramBuilder {
            name: name.to_string(),
            got: Rc::new(RefCell::new(GotTable::new())),
            objects: Vec::new(),
            entry: None,
        }
    }

    /// Creates an [`ObjectBuilder`] sharing this program's GOT namespace.
    #[must_use]
    pub fn object(&self, name: &str) -> ObjectBuilder {
        let mut ob = ObjectBuilder::new(name);
        ob.share_got(self.got.clone());
        ob
    }

    /// Adds a finished object. If it declares an entry point, that becomes
    /// the program entry.
    pub fn add(&mut self, object: Object) {
        if let Some(e) = &object.entry {
            self.entry = Some(e.clone());
        }
        self.objects.push(object);
    }

    /// Finalises the program.
    ///
    /// # Panics
    ///
    /// Panics if no object declared an entry point.
    #[must_use]
    pub fn finish(self) -> Program {
        Program {
            name: self.name,
            objects: self.objects,
            entry: self.entry.expect("program has no entry point"),
        }
    }
}

/// Linking/loading failures.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum LoadError {
    /// A GOT or relocation symbol was not defined by any object.
    UndefinedSymbol(String),
    /// The entry symbol is missing or not a function.
    BadEntry(String),
    /// Underlying VM failure.
    Vm(VmError),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::UndefinedSymbol(s) => write!(f, "undefined symbol {s}"),
            LoadError::BadEntry(s) => write!(f, "bad entry point {s}"),
            LoadError::Vm(e) => write!(f, "load failed: {e}"),
        }
    }
}

impl Error for LoadError {}

impl From<VmError> for LoadError {
    fn from(e: VmError) -> LoadError {
        LoadError::Vm(e)
    }
}

/// One mapped object.
#[derive(Clone, Debug)]
pub struct LoadedObject {
    /// Object name.
    pub name: String,
    /// Base VA of the text segment.
    pub text_base: u64,
    /// Text length in bytes.
    pub text_len: u64,
    /// Base VA of the data segment.
    pub data_base: u64,
    /// Decoded instructions for the CPU's code map.
    pub code: Arc<Vec<Instr>>,
}

/// The result of loading a program.
#[derive(Clone, Debug)]
pub struct LoadedProgram {
    /// Entry PC.
    pub entry_pc: u64,
    /// PCC for the entry object (bounded to its text, execute+read).
    pub entry_pcc: Capability,
    /// `$cgp` / `$gp` value: the GOT capability (CheriABI) or base address
    /// (legacy; the capability still carries the address for the kernel to
    /// extract).
    pub got_cap: Capability,
    /// Mapped objects.
    pub objects: Vec<LoadedObject>,
    /// TLS capability per object name (CheriABI) — also published in GOT.
    #[allow(clippy::disallowed_types)] // object names, looked up once per spawn
    pub tls_caps: std::collections::HashMap<String, Capability>,
    /// Estimated (instructions, cycles) of startup relocation work — "this
    /// adds overhead comparable to position-independent binaries" (§4).
    pub startup_cost: (u64, u64),
}

fn resolve<'p>(
    objects: &'p [Object],
    bases: &[(u64, u64)],
    name: &str,
) -> Option<(usize, &'p SymKind)> {
    let _ = bases;
    for (i, o) in objects.iter().enumerate() {
        if let Some(s) = o.find_symbol(name) {
            return Some((i, &s.kind));
        }
    }
    None
}

/// Loads `program` into `space` for the given ABI, reporting every
/// installed capability via `on_install` (for the derivation trace).
///
/// # Errors
///
/// [`LoadError::UndefinedSymbol`], [`LoadError::BadEntry`], or a VM error.
pub fn load(
    vm: &mut Vm,
    space: AsId,
    program: &Program,
    abi: Abi,
    ptr_size: u64,
    mut on_install: impl FnMut(&Capability),
) -> Result<LoadedProgram, LoadError> {
    let root = vm.space(space).root;
    let mut loaded = Vec::new();
    let mut bases = Vec::new();
    let mut text_cursor = 0x1_0000u64;
    let mut cost_instrs = 0u64;

    // 1. Map text and data of every object.
    for obj in &program.objects {
        let text_len = (obj.code.len() as u64 * 4).max(4096);
        // The in-memory text bytes are the encoded instruction stream
        // (index-encoded; see DESIGN.md §3): enough for the i-cache model
        // and PCC bounds to behave exactly as on hardware.
        let text_bytes: Vec<u8> = (0..obj.code.len() as u32)
            .flat_map(u32::to_le_bytes)
            .collect();
        let text_base = vm.map(
            space,
            Some(text_cursor),
            text_len,
            Prot::rx(),
            Backing::Image {
                data: Arc::new(text_bytes),
                offset: 0,
            },
            "text",
        )?;
        text_cursor = (text_base + text_len + 0xffff) & !0xffff;

        let data_len = obj.data_segment_size().max(16);
        let data_base = vm.map(
            space,
            Some(text_cursor),
            data_len,
            Prot::rw(),
            Backing::Image {
                data: Arc::new(obj.data.clone()),
                offset: 0,
            },
            "data",
        )?;
        text_cursor = (data_base + data_len + 0xffff) & !0xffff;

        bases.push((text_base, data_base));
        loaded.push(LoadedObject {
            name: obj.name.clone(),
            text_base,
            text_len,
            data_base,
            code: Arc::new(obj.code.clone()),
        });
    }

    // 2. Allocate TLS blocks (16-byte aligned, contiguous in one mapping).
    let mut tls_layout = Vec::new();
    let mut tls_total = 0u64;
    for obj in &program.objects {
        let sz = obj.tls_size.div_ceil(16) * 16;
        tls_layout.push((obj.name.clone(), tls_total, obj.tls_size));
        tls_total += sz;
    }
    let tls_base = if tls_total > 0 {
        vm.map(space, None, tls_total, Prot::rw(), Backing::Zero, "tls")?
    } else {
        0
    };
    #[allow(clippy::disallowed_types)] // object names, as in `LoadedProgram::tls_caps`
    let mut tls_caps = std::collections::HashMap::new();
    for (name, off, size) in &tls_layout {
        if *size == 0 {
            continue;
        }
        let cap = root
            .with_addr(tls_base + off)
            .set_bounds(size.div_ceil(16) * 16, true)
            .expect("tls block within root")
            .and_perms(Perms::user_data() - Perms::VMMAP)
            .with_source(CapSource::Tls);
        on_install(&cap);
        tls_caps.insert(name.clone(), cap);
        cost_instrs += 20;
    }

    // 3. Build the merged GOT (every object carries the same table).
    // Each object snapshots the shared table when it is finished, so the
    // longest snapshot holds the complete merged GOT.
    let got_entries = program
        .objects
        .iter()
        .map(|o| o.got.clone())
        .max_by_key(Vec::len)
        .unwrap_or_default();
    let got_len = (got_entries.len() as u64 * ptr_size).max(16);
    let got_base = vm.map(space, None, got_len, Prot::rw(), Backing::Zero, "got")?;
    let symbol_cap = |sym: &str| -> Result<Capability, LoadError> {
        if let Some(tls_obj) = sym.strip_prefix("__tls_") {
            return tls_caps
                .get(tls_obj)
                .copied()
                .ok_or_else(|| LoadError::UndefinedSymbol(sym.to_string()));
        }
        let (oi, kind) = resolve(&program.objects, &bases, sym)
            .ok_or_else(|| LoadError::UndefinedSymbol(sym.to_string()))?;
        let (tb, db) = bases[oi];
        let cap = match kind {
            SymKind::Func { code_index } => {
                // Function capabilities are bounded to the whole object.
                let tl = loaded[oi].text_len;
                root.with_addr(tb)
                    .set_bounds(tl, false)
                    .expect("text within root")
                    .with_addr(tb + u64::from(*code_index) * 4)
                    .and_perms(Perms::user_code())
                    .with_source(CapSource::GlobReloc)
            }
            SymKind::Data { offset, size } => root
                .with_addr(db + offset)
                .set_bounds((*size).max(1), false)
                .expect("data within root")
                .and_perms(Perms::user_data() - Perms::VMMAP)
                .with_source(CapSource::GlobReloc),
        };
        Ok(cap)
    };

    for (i, entry) in got_entries.iter().enumerate() {
        let cap = symbol_cap(&entry.symbol)?;
        let slot_va = got_base + i as u64 * ptr_size;
        match abi {
            Abi::PureCap => {
                on_install(&cap);
                vm.store_cap(space, slot_va, cap)?;
            }
            Abi::Mips64 => vm.write_u64(space, slot_va, cap.addr())?,
        }
        cost_instrs += 12;
    }

    // 4. Data relocations ("global variables containing pointers").
    for (oi, obj) in program.objects.iter().enumerate() {
        let (_, db) = bases[oi];
        for r in &obj.relocs {
            let cap = symbol_cap(&r.symbol)?.inc_addr(r.addend);
            let va = db + r.offset;
            match abi {
                Abi::PureCap => {
                    on_install(&cap);
                    vm.store_cap(space, va, cap)?;
                }
                Abi::Mips64 => vm.write_u64(space, va, cap.addr())?,
            }
            cost_instrs += 12;
        }
    }

    // 5. Entry point and its PCC.
    let (eoi, ekind) = resolve(&program.objects, &bases, &program.entry)
        .ok_or_else(|| LoadError::BadEntry(program.entry.clone()))?;
    let SymKind::Func { code_index } = ekind else {
        return Err(LoadError::BadEntry(program.entry.clone()));
    };
    let entry_pc = bases[eoi].0 + u64::from(*code_index) * 4;
    let entry_pcc = match abi {
        Abi::PureCap => root
            .with_addr(loaded[eoi].text_base)
            .set_bounds(loaded[eoi].text_len, false)
            .expect("text within root")
            .with_addr(entry_pc)
            .and_perms(Perms::user_code()),
        // Legacy processes run with an address-space-wide PCC.
        Abi::Mips64 => root.with_addr(entry_pc).and_perms(Perms::user_code()),
    };
    on_install(&entry_pcc);

    let got_cap = match abi {
        Abi::PureCap => {
            let c = root
                .with_addr(got_base)
                .set_bounds(got_len, false)
                .expect("got within root")
                .and_perms(Perms::user_rodata())
                .with_source(CapSource::Exec);
            on_install(&c);
            c
        }
        Abi::Mips64 => root.with_addr(got_base).with_source(CapSource::Exec),
    };

    Ok(LoadedProgram {
        entry_pc,
        entry_pcc,
        got_cap,
        objects: loaded,
        tls_caps,
        startup_cost: (cost_instrs, cost_instrs + cost_instrs / 4),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_cap::{CapFormat, PrincipalId};
    use cheri_isa::codegen::{CodegenOpts, FnBuilder, Ptr, Val};
    use cheri_isa::Width;

    /// A two-object program: `main` calls `lib_add` through the GOT and
    /// reads the global `counter`.
    fn build_program(opts: CodegenOpts) -> Program {
        let mut pb = ProgramBuilder::new("demo");

        let mut lib = pb.object("libdemo");
        lib.set_tls_size(64);
        lib.add_data("counter", &42u64.to_le_bytes(), 16);
        {
            let mut f = FnBuilder::begin(&mut lib, "lib_add", opts);
            f.arg_to_val(Val(0), 0);
            f.arg_to_val(Val(1), 1);
            f.add(Val(2), Val(0), Val(1));
            f.set_ret_val(Val(2));
            f.leave_ret();
        }
        pb.add(lib.finish());

        let mut exe = pb.object("demo");
        {
            let mut f = FnBuilder::begin(&mut exe, "main", opts);
            f.enter(32);
            f.li(Val(0), 1);
            f.li(Val(1), 2);
            f.set_arg_val(0, Val(0));
            f.set_arg_val(1, Val(1));
            f.call_global("lib_add");
            f.ret_val_to(Val(2));
            // read counter global, add
            f.load_global_ptr(Ptr(0), "counter");
            f.load(Val(3), Ptr(0), 0, Width::D, false);
            f.add(Val(2), Val(2), Val(3));
            f.set_ret_val(Val(2));
            f.leave_ret();
        }
        exe.set_entry("main");
        pb.add(exe.finish());
        pb.finish()
    }

    #[test]
    fn load_resolves_symbols_both_abis() {
        for (abi, opts, ptr) in [
            (Abi::Mips64, CodegenOpts::mips64(), 8u64),
            (Abi::PureCap, CodegenOpts::purecap(), 16),
        ] {
            let program = build_program(opts);
            let mut vm = Vm::new(256);
            let space = vm.create_space(PrincipalId::from_raw(1), CapFormat::C128);
            let mut installs = 0;
            let lp = load(&mut vm, space, &program, abi, ptr, |_| installs += 1).unwrap();
            assert!(lp.entry_pc >= lp.objects[1].text_base);
            assert_eq!(lp.objects.len(), 2);
            if abi == Abi::PureCap {
                assert!(installs >= 3, "GOT+TLS+entry installs traced");
                // GOT slot 0 = lib_add: a function capability bounded to
                // the library object's text.
                let got0 = vm.load_cap(space, lp.got_cap.base()).unwrap().unwrap();
                assert!(got0.perms().contains(Perms::EXECUTE));
                assert_eq!(got0.base(), lp.objects[0].text_base);
                // counter slot: data cap bounded to 8 bytes.
                let got1 = vm.load_cap(space, lp.got_cap.base() + 16).unwrap().unwrap();
                assert!(got1.length() >= 8 && got1.length() <= 16);
                assert!(!got1.perms().contains(Perms::EXECUTE));
                assert_eq!(got1.provenance().source, CapSource::GlobReloc);
            } else {
                // Legacy GOT: raw addresses.
                let a = vm.read_u64(space, lp.got_cap.addr()).unwrap();
                assert_eq!(a, lp.objects[0].text_base, "lib_add at text start");
            }
        }
    }

    #[test]
    fn tls_blocks_are_per_object_and_bounded() {
        let program = build_program(CodegenOpts::purecap());
        let mut vm = Vm::new(256);
        let space = vm.create_space(PrincipalId::from_raw(1), CapFormat::C128);
        let lp = load(&mut vm, space, &program, Abi::PureCap, 16, |_| {}).unwrap();
        let tls = lp.tls_caps.get("libdemo").expect("lib has tls");
        assert_eq!(tls.length(), 64);
        assert_eq!(tls.provenance().source, CapSource::Tls);
        assert!(!lp.tls_caps.contains_key("demo"), "exe declared no tls");
    }

    #[test]
    fn undefined_symbol_fails() {
        let mut pb = ProgramBuilder::new("bad");
        let mut exe = pb.object("bad");
        {
            let mut f = FnBuilder::begin(&mut exe, "main", CodegenOpts::purecap());
            f.call_global("no_such_fn");
            f.leave_ret();
        }
        exe.set_entry("main");
        pb.add(exe.finish());
        let program = pb.finish();
        let mut vm = Vm::new(64);
        let space = vm.create_space(PrincipalId::from_raw(1), CapFormat::C128);
        let err = load(&mut vm, space, &program, Abi::PureCap, 16, |_| {}).unwrap_err();
        assert_eq!(err, LoadError::UndefinedSymbol("no_such_fn".into()));
    }

    #[test]
    fn data_relocs_initialise_pointer_globals() {
        let mut pb = ProgramBuilder::new("reloc");
        let mut exe = pb.object("reloc");
        exe.add_data("target", &7u64.to_le_bytes(), 16);
        let slot = exe.add_data("ptr_global", &[0u8; 16], 16);
        exe.add_data_reloc(slot, "target", 0);
        {
            let mut f = FnBuilder::begin(&mut exe, "main", CodegenOpts::purecap());
            f.leave_ret();
        }
        exe.set_entry("main");
        pb.add(exe.finish());
        let program = pb.finish();
        let mut vm = Vm::new(64);
        let space = vm.create_space(PrincipalId::from_raw(1), CapFormat::C128);
        let lp = load(&mut vm, space, &program, Abi::PureCap, 16, |_| {}).unwrap();
        let data_base = lp.objects[0].data_base;
        let cap = vm
            .load_cap(space, data_base + slot)
            .unwrap()
            .expect("tagged");
        assert_eq!(cap.addr(), data_base, "points at `target` (offset 0)");
        assert!(cap.length() >= 8);
    }
}
