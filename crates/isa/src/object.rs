//! Loadable objects: the simulated equivalent of ELF executables and shared
//! libraries, consumed by the run-time linker.

use crate::{Assembler, Instr};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Index of a symbol within its object.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SymbolId(pub usize);

/// What a symbol names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SymKind {
    /// A function: instruction index of its entry point.
    Func {
        /// Index into the object's code of the first instruction.
        code_index: u32,
    },
    /// A writable data object at `offset` within the data segment
    /// (initialised template + BSS).
    Data {
        /// Offset within the object's data segment.
        offset: u64,
        /// Size in bytes.
        size: u64,
    },
}

/// A named, linkable entity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Symbol {
    /// Link name.
    pub name: String,
    /// Location and kind.
    pub kind: SymKind,
}

/// One GOT slot: a by-name reference the run-time linker resolves to a
/// bounded capability (CheriABI) or an integer address (legacy ABI).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GotEntry {
    /// Name of the referenced symbol (searched across loaded objects).
    pub symbol: String,
}

/// A data-segment relocation: a pointer-sized slot at `offset` that must be
/// initialised to point at `symbol` during startup. Under CheriABI these
/// become capability initialisations performed by RTLD, "as tags are not
/// preserved on disk" (§4 "Dynamic linking").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataReloc {
    /// Offset of the pointer slot within the data segment.
    pub offset: u64,
    /// Target symbol name.
    pub symbol: String,
    /// Byte addend applied to the target address.
    pub addend: i64,
}

/// A program-wide global offset table shared by all objects of a program.
///
/// Real CheriABI gives each shared object its own capability GOT reached
/// through `$cgp`; our guest toolchain builds all of a program's objects
/// together, so the GOT namespace is merged at build time (slot indices are
/// consistent across objects) — the measured properties (slot offsets, CLC
/// immediate reach, per-symbol capability bounds) are identical. See
/// DESIGN.md §3.
#[derive(Debug, Default)]
pub struct GotTable {
    entries: Vec<GotEntry>,
    #[allow(clippy::disallowed_types)] // symbol names, looked up at build time only
    index: std::collections::HashMap<String, usize>,
}

impl GotTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> GotTable {
        GotTable::default()
    }

    /// Returns the slot for `symbol`, allocating on first use.
    pub fn slot(&mut self, symbol: &str) -> usize {
        if let Some(&i) = self.index.get(symbol) {
            return i;
        }
        let i = self.entries.len();
        self.entries.push(GotEntry {
            symbol: symbol.to_string(),
        });
        self.index.insert(symbol.to_string(), i);
        i
    }

    /// The entries in slot order.
    #[must_use]
    pub fn entries(&self) -> &[GotEntry] {
        &self.entries
    }
}

/// A complete loadable object.
#[derive(Clone)]
pub struct Object {
    /// Object (library or executable) name.
    pub name: String,
    /// Code segment: decoded instructions, 4 virtual bytes each.
    pub code: Vec<Instr>,
    /// Initialised data template; the data segment is `data.len() +
    /// bss_size` bytes at load time.
    pub data: Vec<u8>,
    /// Zero-initialised space following the data template.
    pub bss_size: u64,
    /// Symbol table.
    pub symbols: Vec<Symbol>,
    /// Global offset table entries.
    pub got: Vec<GotEntry>,
    /// Startup pointer initialisations.
    pub relocs: Vec<DataReloc>,
    /// Bytes of thread-local storage this object needs per thread.
    pub tls_size: u64,
    /// Name of the entry-point function, for executables.
    pub entry: Option<String>,
    /// Names of objects this one depends on (like `DT_NEEDED`).
    pub needed: Vec<String>,
}

impl fmt::Debug for Object {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Object{{{} code={} data={}+{} syms={} got={}}}",
            self.name,
            self.code.len(),
            self.data.len(),
            self.bss_size,
            self.symbols.len(),
            self.got.len()
        )
    }
}

impl Object {
    /// Looks up a symbol by name.
    #[must_use]
    pub fn find_symbol(&self, name: &str) -> Option<&Symbol> {
        self.symbols.iter().find(|s| s.name == name)
    }

    /// Total size of the data segment (template + BSS).
    #[must_use]
    pub fn data_segment_size(&self) -> u64 {
        self.data.len() as u64 + self.bss_size
    }
}

/// Incremental builder for an [`Object`].
///
/// Functions share a single instruction stream (so intra-object calls are
/// plain label jumps); data and BSS symbols are laid out with explicit
/// alignment (capability-holding slots must be 16-byte aligned — the
/// "pointer shape" compatibility category of Table 2).
pub struct ObjectBuilder {
    name: String,
    /// The shared assembler for all functions. Public so the codegen
    /// `FnBuilder` can borrow it together with GOT bookkeeping.
    pub asm: Assembler,
    data: Vec<u8>,
    bss_size: u64,
    tls_size: u64,
    symbols: Vec<Symbol>,
    got: Rc<RefCell<GotTable>>,
    relocs: Vec<DataReloc>,
    entry: Option<String>,
    needed: Vec<String>,
}

impl fmt::Debug for ObjectBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ObjectBuilder({})", self.name)
    }
}

impl ObjectBuilder {
    /// Starts building an object called `name`.
    #[must_use]
    pub fn new(name: &str) -> ObjectBuilder {
        ObjectBuilder {
            name: name.to_string(),
            asm: Assembler::new(),
            data: Vec::new(),
            bss_size: 0,
            tls_size: 0,
            symbols: Vec::new(),
            got: Rc::new(RefCell::new(GotTable::new())),
            relocs: Vec::new(),
            entry: None,
            needed: Vec::new(),
        }
    }

    /// Declares a dependency on another object.
    pub fn needs(&mut self, dep: &str) {
        if !self.needed.iter().any(|n| n == dep) {
            self.needed.push(dep.to_string());
        }
    }

    /// Marks the current assembler position as the entry point of function
    /// `name` and registers the symbol.
    pub fn begin_function(&mut self, name: &str) -> SymbolId {
        let id = SymbolId(self.symbols.len());
        self.symbols.push(Symbol {
            name: name.to_string(),
            kind: SymKind::Func {
                code_index: self.asm.here(),
            },
        });
        id
    }

    /// Selects `name` as the executable's entry point.
    pub fn set_entry(&mut self, name: &str) {
        self.entry = Some(name.to_string());
    }

    fn align_data(&mut self, align: u64) -> u64 {
        assert!(self.bss_size == 0, "initialised data after BSS reservation");
        let a = align.max(1);
        while !(self.data.len() as u64).is_multiple_of(a) {
            self.data.push(0);
        }
        self.data.len() as u64
    }

    /// Adds an initialised data object, returning its segment offset.
    pub fn add_data(&mut self, name: &str, bytes: &[u8], align: u64) -> u64 {
        let offset = self.align_data(align);
        self.data.extend_from_slice(bytes);
        self.symbols.push(Symbol {
            name: name.to_string(),
            kind: SymKind::Data {
                offset,
                size: bytes.len() as u64,
            },
        });
        offset
    }

    /// Reserves zero-initialised space, returning its segment offset. All
    /// BSS reservations must come after initialised data.
    pub fn reserve_bss(&mut self, name: &str, size: u64, align: u64) -> u64 {
        let a = align.max(1);
        let mut off = self.data.len() as u64 + self.bss_size;
        off = off.div_ceil(a) * a;
        self.bss_size = off + size - self.data.len() as u64;
        self.symbols.push(Symbol {
            name: name.to_string(),
            kind: SymKind::Data { offset: off, size },
        });
        off
    }

    /// Returns the GOT slot index for `symbol`, allocating one on first use.
    pub fn got_slot(&mut self, symbol: &str) -> usize {
        self.got.borrow_mut().slot(symbol)
    }

    /// This object's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Uses `table` as the (program-wide) GOT namespace instead of a
    /// private one. Must be called before any slot is allocated.
    pub fn share_got(&mut self, table: Rc<RefCell<GotTable>>) {
        assert!(
            self.got.borrow().entries().is_empty(),
            "GOT already populated"
        );
        self.got = table;
    }

    /// Declares `size` bytes of per-thread TLS for this object.
    pub fn set_tls_size(&mut self, size: u64) {
        self.tls_size = size;
    }

    /// Records that the pointer-sized slot at data-segment `offset` must be
    /// initialised to `symbol + addend` at startup.
    pub fn add_data_reloc(&mut self, offset: u64, symbol: &str, addend: i64) {
        self.relocs.push(DataReloc {
            offset,
            symbol: symbol.to_string(),
            addend,
        });
    }

    /// Finalises the object, resolving all label fixups.
    ///
    /// # Panics
    ///
    /// Panics if any label used in a branch was never bound.
    #[must_use]
    pub fn finish(self) -> Object {
        Object {
            name: self.name,
            code: self.asm.finish(),
            data: self.data,
            bss_size: self.bss_size,
            tls_size: self.tls_size,
            symbols: self.symbols,
            got: self.got.borrow().entries().to_vec(),
            relocs: self.relocs,
            entry: self.entry,
            needed: self.needed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ireg;

    #[test]
    fn layout_and_symbols() {
        let mut b = ObjectBuilder::new("libtest");
        b.begin_function("f");
        b.asm.emit(Instr::Li {
            rd: ireg::V0,
            imm: 7,
        });
        let d0 = b.add_data("greeting", b"hello", 1);
        let d1 = b.add_data("table", &[1, 2, 3, 4], 16);
        let bss = b.reserve_bss("buf", 100, 16);
        let obj = b.finish();
        assert_eq!(d0, 0);
        assert_eq!(d1 % 16, 0);
        assert!(bss.is_multiple_of(16) && bss >= obj.data.len() as u64);
        assert_eq!(obj.data_segment_size(), bss + 100);
        match obj.find_symbol("f").unwrap().kind {
            SymKind::Func { code_index } => assert_eq!(code_index, 0),
            _ => panic!("wrong kind"),
        }
        match obj.find_symbol("table").unwrap().kind {
            SymKind::Data { size, .. } => assert_eq!(size, 4),
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn got_slots_dedup() {
        let mut b = ObjectBuilder::new("x");
        assert_eq!(b.got_slot("malloc"), 0);
        assert_eq!(b.got_slot("free"), 1);
        assert_eq!(b.got_slot("malloc"), 0);
        assert_eq!(b.finish().got.len(), 2);
    }

    #[test]
    fn needed_dedups() {
        let mut b = ObjectBuilder::new("x");
        b.needs("libc");
        b.needs("libc");
        assert_eq!(b.finish().needed, vec!["libc".to_string()]);
    }
}
