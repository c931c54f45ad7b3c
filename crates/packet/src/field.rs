//! The packet *field* model.
//!
//! NF action profiles (paper Table 2) are expressed over a small set of
//! named packet fields — source/destination IP, source/destination port,
//! payload — plus header-structure actions (add/remove) and drop. The
//! orchestrator's dependency analysis (paper Table 3 and Algorithm 1) and
//! the Dirty Memory Reusing optimization (OP#1) both reason about *which
//! fields* two NFs touch; this module gives those fields stable identities
//! and dense set representations.

/// A named packet field that NF actions can read or write.
///
/// The first five variants are exactly the columns of the paper's Table 2;
/// the remainder extend the model to L2 and common IPv4 scalars so richer
/// NFs (routers decrementing TTL, DSCP markers) can be profiled too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum FieldId {
    /// IPv4 source address.
    Sip = 0,
    /// IPv4 destination address.
    Dip = 1,
    /// L4 (TCP/UDP) source port.
    Sport = 2,
    /// L4 (TCP/UDP) destination port.
    Dport = 3,
    /// Application payload bytes.
    Payload = 4,
    /// Ethernet source MAC.
    Smac = 5,
    /// Ethernet destination MAC.
    Dmac = 6,
    /// IPv4 time-to-live.
    Ttl = 7,
    /// IPv4 DSCP/ECN byte.
    Tos = 8,
    /// L4 checksum (rewritten after any header rewrite).
    L4Checksum = 9,
}

impl FieldId {
    /// All fields, in discriminant order.
    pub const ALL: [FieldId; 10] = [
        FieldId::Sip,
        FieldId::Dip,
        FieldId::Sport,
        FieldId::Dport,
        FieldId::Payload,
        FieldId::Smac,
        FieldId::Dmac,
        FieldId::Ttl,
        FieldId::Tos,
        FieldId::L4Checksum,
    ];

    /// The five fields of the paper's Table 2.
    pub const TABLE2: [FieldId; 5] = [
        FieldId::Sip,
        FieldId::Dip,
        FieldId::Sport,
        FieldId::Dport,
        FieldId::Payload,
    ];

    /// Short lowercase name used by the policy DSL and bench output.
    fn name(self) -> &'static str {
        match self {
            FieldId::Sip => "sip",
            FieldId::Dip => "dip",
            FieldId::Sport => "sport",
            FieldId::Dport => "dport",
            FieldId::Payload => "payload",
            FieldId::Smac => "smac",
            FieldId::Dmac => "dmac",
            FieldId::Ttl => "ttl",
            FieldId::Tos => "tos",
            FieldId::L4Checksum => "l4csum",
        }
    }

    /// Parse a field name as produced by [`FieldId::name`].
    #[cfg(test)]
    fn parse(s: &str) -> Option<FieldId> {
        FieldId::ALL.into_iter().find(|f| f.name() == s)
    }

    /// Width in bytes of a header field; `None` for the payload, the one
    /// field whose length the frame decides.
    #[inline]
    pub(crate) const fn width(self) -> Option<usize> {
        match self {
            FieldId::Sip | FieldId::Dip => Some(4),
            FieldId::Sport | FieldId::Dport | FieldId::L4Checksum => Some(2),
            FieldId::Smac | FieldId::Dmac => Some(6),
            FieldId::Ttl | FieldId::Tos => Some(1),
            FieldId::Payload => None,
        }
    }

    /// The bit this field occupies in a [`FieldMask`].
    #[inline]
    fn bit(self) -> u16 {
        1 << (self as u8)
    }
}

impl core::fmt::Display for FieldId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// A dense set of [`FieldId`]s.
///
/// The orchestrator computes, for every NF in a compiled service graph, the
/// mask of fields it may write; the Dirty Memory Reusing check is a mask
/// intersection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FieldMask(u16);

impl FieldMask {
    /// The empty set.
    pub const EMPTY: FieldMask = FieldMask(0);
    /// Every field.
    pub const ALL: FieldMask = FieldMask((1 << FieldId::ALL.len() as u16) - 1);

    /// Set containing a single field.
    pub fn single(f: FieldId) -> Self {
        Self(f.bit())
    }

    /// Build from an iterator of fields.
    pub fn from_fields<I: IntoIterator<Item = FieldId>>(fields: I) -> Self {
        fields.into_iter().fold(Self::EMPTY, |m, f| m.with(f))
    }

    /// This set plus `f`.
    #[must_use]
    fn with(self, f: FieldId) -> Self {
        Self(self.0 | f.bit())
    }

    /// Insert `f` in place.
    pub fn insert(&mut self, f: FieldId) {
        self.0 |= f.bit();
    }

    /// Remove `f` in place.
    pub fn remove(&mut self, f: FieldId) {
        self.0 &= !f.bit();
    }

    /// True if `f` is in the set.
    pub fn contains(self, f: FieldId) -> bool {
        self.0 & f.bit() != 0
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: Self) -> Self {
        Self(self.0 | other.0)
    }

    /// Set intersection.
    #[must_use]
    pub fn intersection(self, other: Self) -> Self {
        Self(self.0 & other.0)
    }

    /// True when the two sets share no field — the Dirty Memory Reusing
    /// precondition for sharing one packet copy between two writers.
    pub fn is_disjoint(self, other: Self) -> bool {
        self.0 & other.0 == 0
    }

    /// True when the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of fields in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterate the fields in the set in discriminant order.
    pub fn iter(self) -> impl Iterator<Item = FieldId> {
        FieldId::ALL.into_iter().filter(move |f| self.contains(*f))
    }
}

impl FromIterator<FieldId> for FieldMask {
    fn from_iter<T: IntoIterator<Item = FieldId>>(iter: T) -> Self {
        Self::from_fields(iter)
    }
}

impl core::fmt::Display for FieldMask {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let mut first = true;
        write!(f, "{{")?;
        for field in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{field}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_parse_roundtrip() {
        for f in FieldId::ALL {
            assert_eq!(FieldId::parse(f.name()), Some(f));
        }
        assert_eq!(FieldId::parse("nope"), None);
    }

    #[test]
    fn mask_set_operations() {
        let a = FieldMask::from_fields([FieldId::Sip, FieldId::Dip]);
        let b = FieldMask::from_fields([FieldId::Dip, FieldId::Sport]);
        assert!(a.contains(FieldId::Sip));
        assert!(!a.contains(FieldId::Sport));
        assert_eq!(a.union(b).len(), 3);
        assert_eq!(a.intersection(b), FieldMask::single(FieldId::Dip));
        assert!(!a.is_disjoint(b));
        assert!(a.is_disjoint(FieldMask::single(FieldId::Payload)));
    }

    #[test]
    fn insert_remove() {
        let mut m = FieldMask::EMPTY;
        m.insert(FieldId::Ttl);
        assert!(m.contains(FieldId::Ttl));
        m.remove(FieldId::Ttl);
        assert!(m.is_empty());
    }

    #[test]
    fn iter_matches_contains() {
        let m = FieldMask::from_fields([FieldId::Payload, FieldId::Sip, FieldId::L4Checksum]);
        let collected: Vec<_> = m.iter().collect();
        assert_eq!(
            collected,
            vec![FieldId::Sip, FieldId::Payload, FieldId::L4Checksum]
        );
    }

    #[test]
    fn all_mask_covers_all_fields() {
        for f in FieldId::ALL {
            assert!(FieldMask::ALL.contains(f));
        }
        assert_eq!(FieldMask::ALL.len(), FieldId::ALL.len());
    }

    #[test]
    fn display_formats() {
        let m = FieldMask::from_fields([FieldId::Sip, FieldId::Dport]);
        assert_eq!(m.to_string(), "{sip,dport}");
        assert_eq!(FieldMask::EMPTY.to_string(), "{}");
    }
}
