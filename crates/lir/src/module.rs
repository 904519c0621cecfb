//! Modules, functions and basic blocks.

use std::fmt;

use crate::inst::{Inst, Terminator};

/// An SSA virtual register, unique within its function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u32);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// A basic-block index within its function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// A function index within its module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// An instruction index within its block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub u32);

/// A fully-qualified instruction reference `(function, block, index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstRef {
    pub func: FuncId,
    pub block: BlockId,
    pub inst: InstId,
}

impl fmt::Display for InstRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}:bb{}:i{}", self.func.0, self.block.0, self.inst.0)
    }
}

/// A basic block: a φ-prefix, straight-line instructions, one terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Optional label for diagnostics and printing.
    pub name: String,
    /// Instructions; φ-nodes must form a prefix.
    pub insts: Vec<Inst>,
    /// The terminator. Builders may leave this as `Ret {None}` until sealed.
    pub term: Terminator,
}

impl Block {
    /// Creates an empty block terminated by `ret void` (to be overwritten).
    pub fn new(name: impl Into<String>) -> Block {
        Block {
            name: name.into(),
            insts: Vec::new(),
            term: Terminator::Ret { value: None },
        }
    }

    /// Number of leading φ-nodes.
    pub fn phi_count(&self) -> usize {
        self.insts.iter().take_while(|i| i.is_phi()).count()
    }
}

/// A function: parameters are pre-assigned registers `%0..%arity-1`.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    pub name: String,
    /// Parameter names (registers `%0..`), for printing only.
    pub params: Vec<String>,
    pub blocks: Vec<Block>,
    /// Entry block (always `bb0` by convention).
    pub entry: BlockId,
    /// Number of registers allocated so far (params included).
    pub next_reg: u32,
}

impl Function {
    /// Creates a function with one empty entry block.
    pub fn new(name: impl Into<String>, params: &[&str]) -> Function {
        Function {
            name: name.into(),
            params: params.iter().map(|s| s.to_string()).collect(),
            blocks: vec![Block::new("entry")],
            entry: BlockId(0),
            next_reg: params.len() as u32,
        }
    }

    /// Number of parameters.
    pub fn arity(&self) -> usize {
        self.params.len()
    }

    /// Allocates a fresh SSA register.
    pub fn fresh_reg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Appends an empty block and returns its id.
    pub fn add_block(&mut self, name: impl Into<String>) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block::new(name));
        id
    }

    /// Shared access to a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Mutable access to a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.0 as usize]
    }

    /// Iterates `(BlockId, &Block)` in index order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Total instruction count (terminators excluded).
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }
}

/// A module: a named collection of functions. Equality is structural
/// (names included), so two equal modules execute identically.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    pub name: String,
    pub functions: Vec<Function>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Module {
        Module {
            name: name.into(),
            functions: Vec::new(),
        }
    }

    /// Adds a new function and returns its id.
    pub fn add_function(&mut self, name: impl Into<String>, params: &[&str]) -> FuncId {
        let id = FuncId(self.functions.len() as u32);
        self.functions.push(Function::new(name, params));
        id
    }

    /// Shared access to a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.0 as usize]
    }

    /// Mutable access to a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn function_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.functions[id.0 as usize]
    }

    /// Looks a function up by name.
    pub fn function_by_name(&self, name: &str) -> Option<(FuncId, &Function)> {
        self.functions
            .iter()
            .enumerate()
            .find(|(_, f)| f.name == name)
            .map(|(i, f)| (FuncId(i as u32), f))
    }

    /// Iterates `(FuncId, &Function)` in index order.
    pub fn iter_functions(&self) -> impl Iterator<Item = (FuncId, &Function)> {
        self.functions
            .iter()
            .enumerate()
            .map(|(i, f)| (FuncId(i as u32), f))
    }

    /// Assigns program counters to every instruction; see [`crate::pcmap`].
    ///
    /// Returns the resulting address map. Call again after transforming the
    /// module (PCs are derived from layout, as in a re-compiled binary).
    pub fn assign_pcs(&self) -> crate::pcmap::AddressMap {
        crate::pcmap::AddressMap::build(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Operand;

    #[test]
    fn function_scaffolding() {
        let mut m = Module::new("t");
        let f = m.add_function("f", &["a", "b"]);
        assert_eq!(m.function(f).arity(), 2);
        assert_eq!(m.function(f).next_reg, 2);
        let r = m.function_mut(f).fresh_reg();
        assert_eq!(r, Reg(2));
        let bb = m.function_mut(f).add_block("body");
        assert_eq!(bb, BlockId(1));
        assert_eq!(m.function(f).blocks.len(), 2);
    }

    #[test]
    fn function_lookup_by_name() {
        let mut m = Module::new("t");
        m.add_function("alpha", &[]);
        let beta = m.add_function("beta", &[]);
        assert_eq!(m.function_by_name("beta").unwrap().0, beta);
        assert!(m.function_by_name("gamma").is_none());
    }

    #[test]
    fn phi_prefix_counting() {
        let mut b = Block::new("x");
        b.insts.push(Inst::Phi {
            dst: Reg(0),
            incomings: vec![],
        });
        b.insts.push(Inst::Prefetch {
            addr: Operand::Imm(0),
        });
        assert_eq!(b.phi_count(), 1);
    }

    #[test]
    fn display_impls() {
        assert_eq!(Reg(4).to_string(), "%4");
        assert_eq!(BlockId(2).to_string(), "bb2");
        let r = InstRef {
            func: FuncId(1),
            block: BlockId(2),
            inst: InstId(3),
        };
        assert_eq!(r.to_string(), "f1:bb2:i3");
    }
}
