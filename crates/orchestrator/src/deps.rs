//! The action dependency table (DT) — paper Table 3.
//!
//! For `Order(NF1, before, NF2)` and an action pair `(a1, a2)` (a1 performed
//! by NF1, a2 by NF2), the table answers whether the pair permits parallel
//! execution, and if so whether a packet copy is required — all under the
//! **result correctness principle**: "Two NFs can work in parallel, if
//! parallel execution of the two NFs results in the same processed packet
//! and NF internal states as the sequential service composition."
//!
//! Colour key from the paper's Table 3:
//! * green — parallelizable, no copy;
//! * orange — parallelizable, copy needed;
//! * gray — not parallelizable.
//!
//! The read-write and write-write cells are *field-refined* by Algorithm 1
//! (green when the fields differ — Dirty Memory Reusing — orange when they
//! collide); those two cells therefore never reach this table at lookup
//! time, but we still record their unrefined colour (orange) for
//! completeness and for the census's OP#1-off mode.

use crate::action::ActionKind;

/// Verdict for one action pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Parallelism {
    /// Gray cell: the pair forces sequential composition.
    NotParallelizable,
    /// Green cell: parallel execution needs no packet copy.
    ParallelizableNoCopy,
    /// Orange cell: parallel execution needs a packet copy (and a merge).
    ParallelizableWithCopy,
}

/// The 4×4 dependency table, indexed by `(a1.kind, a2.kind)` with NF1
/// ordered before NF2.
#[derive(Debug, Clone)]
pub struct DependencyTable {
    cells: [[Parallelism; 4]; 4],
}

fn idx(k: ActionKind) -> usize {
    match k {
        ActionKind::Read => 0,
        ActionKind::Write => 1,
        ActionKind::AddRm => 2,
        ActionKind::Drop => 3,
    }
}

impl DependencyTable {
    /// The paper's Table 3.
    ///
    /// Rationale per cell (`row = NF1's action, column = NF2's action`):
    ///
    /// | a1\a2   | Read | Write | Add/Rm | Drop |
    /// |---------|------|-------|--------|------|
    /// | Read    | green (reads commute) | orange¹ (NF1 must see the pre-write value) | orange (NF2 restructures its own copy) | green (drop propagates via nil packets) |
    /// | Write   | gray (NF2 must see NF1's write) | orange¹ (later write wins at merge) | orange | green |
    /// | Add/Rm  | gray | gray | gray | gray (NF2's verdict may depend on the added/removed header) |
    /// | Drop    | gray² | gray² | gray² | gray² |
    ///
    /// ¹ field-refined by Algorithm 1 (Dirty Memory Reusing).
    /// ² when NF1 may drop, running NF2 in parallel lets NF2's *internal
    ///   state* observe packets that sequential composition would have
    ///   discarded — violating the result correctness principle. This is
    ///   also what the paper's own compiled graphs show: the north-south
    ///   chain does **not** parallelize `Order(Firewall, before, LB)` (0%
    ///   reported overhead) even though read/write analysis alone would
    ///   permit it with a copy. Operators can still force drop-capable NFs
    ///   parallel with an explicit `Priority` rule, which supplies the
    ///   conflict resolution (paper §3, `Priority(IPS > Firewall)`);
    ///   Algorithm 1 applies that override, not this table.
    pub fn paper_table3() -> Self {
        use ActionKind::*;
        use Parallelism::*;
        let mut t = Self {
            cells: [[ParallelizableNoCopy; 4]; 4],
        };
        let mut set = |a: ActionKind, b: ActionKind, v: Parallelism| {
            t.cells[idx(a)][idx(b)] = v;
        };
        set(Read, Read, ParallelizableNoCopy);
        set(Read, Write, ParallelizableWithCopy);
        set(Read, AddRm, ParallelizableWithCopy);
        set(Read, Drop, ParallelizableNoCopy);
        set(Write, Read, NotParallelizable);
        set(Write, Write, ParallelizableWithCopy);
        set(Write, AddRm, ParallelizableWithCopy);
        set(Write, Drop, ParallelizableNoCopy);
        set(AddRm, Read, NotParallelizable);
        set(AddRm, Write, NotParallelizable);
        set(AddRm, AddRm, NotParallelizable);
        set(AddRm, Drop, NotParallelizable);
        set(Drop, Read, NotParallelizable);
        set(Drop, Write, NotParallelizable);
        set(Drop, AddRm, NotParallelizable);
        set(Drop, Drop, NotParallelizable);
        t
    }

    /// Verdict for `(a1, a2)` with a1's NF ordered before a2's NF.
    pub(crate) fn lookup(&self, a1: ActionKind, a2: ActionKind) -> Parallelism {
        self.cells[idx(a1)][idx(a2)]
    }
}

impl Default for DependencyTable {
    fn default() -> Self {
        Self::paper_table3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ActionKind::*;
    use Parallelism::*;

    #[test]
    fn paper_examples_hold() {
        let t = DependencyTable::paper_table3();
        // "suppose NF1 reads the packet header, and NF2 later modifies the
        // same header field … we could copy the packets".
        assert_eq!(t.lookup(Read, Write), ParallelizableWithCopy);
        // "if NF1 first writes a packet header and later NF2 reads this
        // header … the two NFs should work in sequence".
        assert_eq!(t.lookup(Write, Read), NotParallelizable);
        // "suppose NF1 and NF2 both read the packet … the two NFs can read
        // the same packet simultaneously".
        assert_eq!(t.lookup(Read, Read), ParallelizableNoCopy);
    }

    #[test]
    fn drop_row_is_gray_but_drop_column_tolerates_readers() {
        let t = DependencyTable::paper_table3();
        for k in ActionKind::ALL {
            assert_eq!(t.lookup(Drop, k), NotParallelizable, "(drop,{k})");
        }
        // NF2 dropping is fine: NF1 would have processed the packet first
        // under sequential composition anyway.
        assert_eq!(t.lookup(Read, Drop), ParallelizableNoCopy);
        assert_eq!(t.lookup(Write, Drop), ParallelizableNoCopy);
    }

    #[test]
    fn addrm_row_is_gray() {
        let t = DependencyTable::paper_table3();
        for k in ActionKind::ALL {
            assert_eq!(t.lookup(AddRm, k), NotParallelizable, "(add/rm,{k})");
        }
    }

    #[test]
    fn table_is_asymmetric_where_order_matters() {
        let t = DependencyTable::paper_table3();
        assert_ne!(t.lookup(Read, Write), t.lookup(Write, Read));
        assert_ne!(t.lookup(Read, AddRm), t.lookup(AddRm, Read));
    }
}
