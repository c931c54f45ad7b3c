//! One workload, start to finish: prepare, measure, gate.

use crate::drive::Tally;
use crate::endtoend::{self, EndToEnd, Plan, Prepared};
use crate::gate;
use crate::host::HostFacts;
use crate::layers::{self, Layers};
use crate::report::RunReport;
use crate::spans::Recorder;
use crate::workloads::Workload;

/// Which passes to run. The driver asks for one at a time (`--trace 0` /
/// `--trace 1`); a person usually wants both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Passes {
    EndToEnd,
    Layers,
    Both,
}

/// Everything one workload run produced.
pub struct Outcome {
    pub workload: &'static Workload,
    pub packets: usize,
    pub traffic_hash: u64,
    pub mean_frame: f64,
    pub end_to_end: Option<EndToEnd>,
    pub layers: Option<Layers>,
    pub tally: Tally,
    /// The traced pass's spans as JSON, when it ran.
    pub trace_json: Option<String>,
}

impl Outcome {
    pub fn report<'a>(&'a self, host: &'a HostFacts, plan: &'a Plan) -> RunReport<'a> {
        RunReport {
            workload: self.workload,
            host,
            plan,
            packets: self.packets,
            traffic_hash: self.traffic_hash,
            mean_frame: self.mean_frame,
            end_to_end: self.end_to_end.as_ref(),
            layers: self.layers.as_ref(),
            tally: &self.tally,
        }
    }
}

/// Run `workload` under `plan`.
pub fn run_workload(
    workload: &'static Workload,
    host: &HostFacts,
    plan: &Plan,
    passes: Passes,
) -> Outcome {
    let mut tally = Tally::default();
    // Only the traced pass records spans; the end-to-end pass is not
    // even handed the recorder, so its numbers carry no tracing cost.
    let mut rec = Recorder::new(passes != Passes::EndToEnd);

    let prep = Prepared::new(workload, plan, &mut rec);
    let end_to_end =
        (passes != Passes::Layers).then(|| endtoend::measure(&prep, host, plan, &mut tally));
    let layers = (passes != Passes::EndToEnd)
        .then(|| layers::measure(&prep, host, plan, &mut tally, &mut rec));

    // The gate runs last so its kept packets do not set the peak RSS the
    // end-to-end pass has already read.
    let gate_input = workload.traffic(plan.seed, plan.gate_packets);
    gate::run(
        &prep.program,
        &prep.names,
        &gate_input,
        host,
        plan.inject_fault,
        &mut tally,
        &mut rec,
    );

    Outcome {
        workload,
        packets: prep.input.len(),
        traffic_hash: prep.input.hash(),
        mean_frame: prep.input.mean_frame(),
        end_to_end,
        layers,
        tally,
        trace_json: (passes != Passes::EndToEnd).then(|| rec.to_json(workload.name)),
    }
}
