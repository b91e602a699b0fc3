//! The symbol table of one PITS program: every variable name resolved to
//! a dense slot, once.
//!
//! Both consumers of a program's names go through it — the bytecode
//! compiler ([`crate::compile`]), whose frame slots `0..n_vars` are these
//! slots, and the abstract interpreter ([`crate::absint`]), whose
//! environments are vectors indexed by them — so a name means the same
//! slot in the VM and in the analyzer.
//!
//! Slot order is the tree-walker's environment construction order: the
//! constants (`pi`, `e`), then `in`, `out` and `local` declarations, then
//! undeclared names in order of first appearance. Redeclaring a name (an
//! input called `pi`) reuses its slot, which is exactly the shadowing the
//! interpreter's map insertion gives.

use crate::ast::Program;
use crate::builtins;
use std::collections::BTreeMap;

/// A dense variable index.
pub type Slot = u32;

/// Names of one program, borrowed from its AST, numbered densely.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable<'a> {
    names: Vec<&'a str>,
    slots: BTreeMap<&'a str, Slot>,
}

impl<'a> SymbolTable<'a> {
    /// The table holding the constants and `prog`'s declarations; names
    /// the body mentions without declaring are interned as they are met.
    pub fn for_program(prog: &'a Program) -> Self {
        let mut t = SymbolTable::default();
        for (name, _) in builtins::CONSTANTS {
            t.intern(name);
        }
        for name in prog.inputs.iter().chain(&prog.outputs).chain(&prog.locals) {
            t.intern(name);
        }
        t
    }

    /// Slot of `name`, allocating the next one on first sight.
    pub fn intern(&mut self, name: &'a str) -> Slot {
        if let Some(&s) = self.slots.get(name) {
            return s;
        }
        let s = self.names.len() as Slot;
        self.names.push(name);
        self.slots.insert(name, s);
        s
    }

    /// The name behind a slot.
    pub fn name(&self, slot: Slot) -> &'a str {
        self.names[slot as usize]
    }

    /// Every name, indexed by slot.
    pub fn names(&self) -> &[&'a str] {
        &self.names
    }

    /// Number of slots handed out.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True before the first `intern`.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn constants_then_declarations_then_first_sight() {
        let p = parse_program("task T in a out x local g begin x := a + q end").unwrap();
        let mut t = SymbolTable::for_program(&p);
        assert_eq!(t.names(), ["pi", "e", "a", "x", "g"]);
        assert_eq!(t.intern("q"), 5);
        assert_eq!(t.intern("a"), 2);
        assert_eq!(t.name(5), "q");
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn redeclared_constant_keeps_its_slot() {
        let p = parse_program("task T in pi out x begin x := pi end").unwrap();
        let t = SymbolTable::for_program(&p);
        assert_eq!(t.names(), ["pi", "e", "x"]);
    }
}
