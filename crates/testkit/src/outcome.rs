//! What a run produced, and the first way two runs differ.

use nfp_dataplane::runtime::FailureKind;
use nfp_io::RunRecord;
use nfp_nf::FlowSnapshot;
use nfp_packet::flow::FlowKey;
use nfp_packet::Packet;
use std::collections::BTreeMap;
use std::fmt;

/// One delivered frame.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Delivery {
    /// The capture or generator timestamp it entered with.
    pub ingress_ns: u64,
    /// The frame.
    pub bytes: Vec<u8>,
    /// Its admission flow (`None` for a frame that has no 5-tuple).
    pub flow: Option<FlowKey>,
}

impl Delivery {
    pub(crate) fn of(p: &Packet) -> Self {
        Delivery {
            ingress_ns: p.meta().ingress_ns(),
            bytes: p.data().to_vec(),
            flow: p.meta().flow(),
        }
    }

    /// The frame as a fresh packet (for the next server of a partition).
    pub fn packet(&self) -> Packet {
        let mut p = Packet::from_bytes(&self.bytes).unwrap();
        p.set_meta(p.meta().with_ingress_ns(self.ingress_ns));
        p
    }

    /// What every level compares: the timestamp and the bytes.
    fn record(&self) -> (u64, &[u8]) {
        (self.ingress_ns, &self.bytes)
    }
}

/// How much of the delivery sequence two runs must share (see the crate
/// docs for which executors guarantee which).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// The same frames in the same order.
    ByteOrder,
    /// The same frames, each admission flow's in the same order.
    PerFlow,
}

/// Everything a run produced that another run must match. Fields an
/// executor cannot observe are `None` and compare equal to anything.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Delivered frames, in delivery order.
    pub delivered: Vec<Delivery>,
    /// Offered packets that an NF or a merge dropped: neither delivered
    /// nor refused at admission.
    pub dropped: u64,
    /// Offered packets the classifier refused (pool exhausted, malformed
    /// frame). Run-to-completion has no admission: 0.
    pub rejected: u64,
    /// The eight drop causes, in [`nfp_io::DropCause`] order: admission
    /// rejected and malformed, NF verdict, error and failed, merge
    /// resolved, error and expired. Engines only.
    pub taxonomy: Option<[u64; 8]>,
    /// Packet copies and merges. Engines only.
    pub work: Option<[u64; 2]>,
    /// Each NF's `(processed, dropped)`, in `NodeId` order. Engines only
    /// (sync, threaded and sharded alike); `None` for a program longer
    /// than [`RunRecord::MAX_NFS`].
    pub per_nf: Option<Vec<(u64, u64)>>,
    /// Every NF's per-flow state, entries sorted, snapshots sorted by NF
    /// name (a fleet's replicas merged).
    pub state: Option<Vec<FlowSnapshot>>,
    /// NFs that failed, `(NodeId, how)`. Engines only.
    pub failures: Option<Vec<(usize, FailureKind)>>,
}

/// The first field in which two outcomes differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// `multiset`, `per-flow order`, `byte order`, `dropped`, `rejected`,
    /// `taxonomy`, `work`, `per_nf`, `state` or `failures`.
    pub field: &'static str,
    /// Where and how.
    pub detail: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} differs: {}", self.field, self.detail)
    }
}

/// Sort each snapshot's entries and the snapshots by NF name, so replica
/// merges, chain order and `NodeId` order all read the same.
pub(crate) fn normalise(mut state: Vec<FlowSnapshot>) -> Vec<FlowSnapshot> {
    for snap in &mut state {
        snap.entries.sort();
    }
    state.sort_by(|a, b| a.nf.cmp(&b.nf));
    state
}

/// `Some(first difference)` of two optional fields both runs observed.
fn both<T: PartialEq + fmt::Debug>(a: &Option<T>, b: &Option<T>) -> Option<String> {
    match (a, b) {
        (Some(a), Some(b)) if a != b => Some(format!("{a:?} against {b:?}")),
        _ => None,
    }
}

impl Outcome {
    /// What `record` says of a run that delivered `delivered`: its drop
    /// and reject counts, its per-NF counters and, for an `engine`, its
    /// taxonomy, copies and merges.
    pub(crate) fn recorded(delivered: Vec<Delivery>, r: &RunRecord, engine: bool) -> Self {
        Outcome {
            delivered,
            dropped: r.dropped,
            rejected: r.rejected,
            taxonomy: engine.then_some(r.causes),
            work: engine.then_some([r.copies, r.merges]),
            per_nf: r.per_nf().map(<[_]>::to_vec),
            ..Outcome::default()
        }
    }

    /// Without the state of the NFs named in `nfs`, for a comparison in
    /// which their state keys differ by design; the caller says why.
    pub fn without_state_of(mut self, nfs: &[String]) -> Self {
        if let Some(state) = &mut self.state {
            state.retain(|s| !nfs.contains(&s.nf));
        }
        self
    }

    /// Each admission flow's deliveries, in delivery order.
    fn by_flow(&self) -> BTreeMap<Option<FlowKey>, Vec<(u64, &[u8])>> {
        let mut flows: BTreeMap<_, Vec<_>> = BTreeMap::new();
        for d in &self.delivered {
            flows.entry(d.flow).or_default().push(d.record());
        }
        flows
    }

    /// The first field in which `self` differs from `reference` at `level`,
    /// in this order: the delivered multiset, per-flow order, byte order,
    /// the drop count, the reject count, the taxonomy, copies and merges, per-NF counters,
    /// state and failures.
    pub fn diff(&self, reference: &Outcome, level: Level) -> Option<Mismatch> {
        let mismatch = |field, detail| Some(Mismatch { field, detail });
        let mut got: Vec<_> = self.delivered.iter().map(Delivery::record).collect();
        let mut want: Vec<_> = reference.delivered.iter().map(Delivery::record).collect();
        got.sort();
        want.sort();
        if got != want {
            let first = got.iter().zip(&want).position(|(g, w)| g != w);
            let detail = format!(
                "{} frames against {}, first sorted difference at {first:?}",
                got.len(),
                want.len()
            );
            return mismatch("multiset", detail);
        }
        let (got, want) = (self.by_flow(), reference.by_flow());
        if let Some((flow, _)) = got.iter().find(|(flow, seq)| want.get(flow) != Some(seq)) {
            return mismatch("per-flow order", format!("flow {flow:?}"));
        }
        if level == Level::ByteOrder {
            let mut pairs = self.delivered.iter().zip(&reference.delivered);
            if let Some(i) = pairs.position(|(g, w)| g.record() != w.record()) {
                return mismatch("byte order", format!("first at delivery {i}"));
            }
        }
        if self.dropped != reference.dropped {
            let detail = format!("{} against {}", self.dropped, reference.dropped);
            return mismatch("dropped", detail);
        }
        if self.rejected != reference.rejected {
            let detail = format!("{} against {}", self.rejected, reference.rejected);
            return mismatch("rejected", detail);
        }
        if let Some(d) = both(&self.taxonomy, &reference.taxonomy) {
            return mismatch("taxonomy", d);
        }
        if let Some(d) = both(&self.work, &reference.work) {
            return mismatch("work", d);
        }
        if let Some(d) = both(&self.per_nf, &reference.per_nf) {
            return mismatch("per_nf", d);
        }
        if let (Some(got), Some(want)) = (&self.state, &reference.state) {
            if got != want {
                let names = |s: &[FlowSnapshot]| -> Vec<String> {
                    s.iter().map(|s| format!("{}:{}", s.nf, s.len())).collect()
                };
                let nf = got
                    .iter()
                    .zip(want)
                    .find(|(g, w)| g != w)
                    .map(|(g, _)| &g.nf);
                let detail = format!(
                    "first at {nf:?}; flows per NF {:?} against {:?}",
                    names(got),
                    names(want)
                );
                return mismatch("state", detail);
            }
        }
        if let Some(d) = both(&self.failures, &reference.failures) {
            return mismatch("failures", d);
        }
        None
    }

    /// Panic, naming `what` and the first difference, unless `self`
    /// matches `reference` at `level`.
    pub fn assert_matches(&self, reference: &Outcome, level: Level, what: impl fmt::Display) {
        if let Some(m) = self.diff(reference, level) {
            panic!("{what}: {m}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfp_packet::ipv4::Ipv4Addr;

    fn delivery(flow: u16, n: u8) -> Delivery {
        let key = FlowKey::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            flow,
            80,
            6,
        );
        Delivery {
            ingress_ns: u64::from(n),
            bytes: vec![n; 8],
            flow: Some(key),
        }
    }

    /// Two flows of two deliveries each, interleaved, and one value in
    /// every other field.
    fn outcome() -> Outcome {
        let state = FlowSnapshot {
            nf: "Monitor".into(),
            entries: vec![(delivery(1, 0).flow.unwrap(), vec![1])],
        };
        Outcome {
            delivered: vec![
                delivery(1, 1),
                delivery(2, 2),
                delivery(1, 3),
                delivery(2, 4),
            ],
            dropped: 2,
            rejected: 1,
            taxonomy: Some([1, 0, 2, 0, 0, 0, 0, 0]),
            work: Some([4, 4]),
            per_nf: Some(vec![(4, 1), (4, 0)]),
            state: Some(vec![state]),
            failures: Some(vec![]),
        }
    }

    #[test]
    fn diff_names_exactly_the_perturbed_field() {
        let reference = outcome();
        assert_eq!(reference.diff(&reference, Level::ByteOrder), None);
        type Perturb = fn(&mut Outcome);
        let perturbations: [(&str, Perturb); 10] = [
            ("multiset", |o| o.delivered[2].bytes[0] ^= 1),
            ("per-flow order", |o| o.delivered.swap(0, 2)),
            ("byte order", |o| o.delivered.swap(0, 1)),
            ("dropped", |o| o.dropped += 1),
            ("rejected", |o| o.rejected += 1),
            ("taxonomy", |o| o.taxonomy.as_mut().unwrap()[2] += 1),
            ("work", |o| o.work.as_mut().unwrap()[1] += 1),
            ("per_nf", |o| o.per_nf.as_mut().unwrap()[1].0 += 1),
            ("state", |o| {
                o.state.as_mut().unwrap()[0].entries[0].1[0] += 1
            }),
            ("failures", |o| {
                o.failures.as_mut().unwrap().push((1, FailureKind::Stalled))
            }),
        ];
        for (field, perturb) in perturbations {
            let mut got = outcome();
            perturb(&mut got);
            let m = got.diff(&reference, Level::ByteOrder);
            assert_eq!(m.map(|m| m.field), Some(field), "perturbed {field}");
        }
    }

    #[test]
    fn each_level_forgives_only_its_freedom() {
        let reference = outcome();
        let mut cross_flow = outcome();
        cross_flow.delivered.swap(0, 1);
        assert_eq!(cross_flow.diff(&reference, Level::PerFlow), None);
        let mut within_flow = outcome();
        within_flow.delivered.swap(0, 2);
        let m = within_flow.diff(&reference, Level::PerFlow);
        assert_eq!(m.map(|m| m.field), Some("per-flow order"));
        // A field one side does not observe is not compared.
        let blind = Outcome {
            state: None,
            ..outcome()
        };
        let mut other = outcome();
        other.state.as_mut().unwrap().clear();
        assert_eq!(blind.diff(&other, Level::ByteOrder), None);
    }
}
