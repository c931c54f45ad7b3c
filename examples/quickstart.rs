//! Quickstart: compile a policy into a parallel service graph and push
//! packets through it.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use nfp_core::prelude::*;

fn main() {
    // 1. An operator writes a traditional sequential chain — NFP converts
    //    it into Order rules automatically (paper Table 1).
    let policy = Policy::from_chain(["Monitor", "Firewall", "LoadBalancer"]);
    println!("policy:\n{policy}\n");

    // 2. The orchestrator identifies NF dependencies (Algorithm 1 over the
    //    built-in Table 2 action profiles) and compiles a service graph.
    let registry = Registry::paper_table2();
    let compiled =
        compile(&policy, &registry, &[], &CompileOptions::default()).expect("policy compiles");
    let graph = &compiled.graph;
    println!("compiled graph:   {}", graph.describe());
    println!(
        "equivalent length: {} (sequential would be 3)",
        graph.equivalent_chain_length()
    );
    println!("copies per packet: {}\n", graph.copies_per_packet());

    // 3. Seal the graph into a validated Program artifact — runtime tables
    //    (classification / forwarding / merging, §4.4.3) plus the wiring
    //    plan the engines execute — and instantiate the NFs.
    let program = compiled.program(1).expect("program seals");
    let nfs: Vec<Box<dyn NetworkFunction>> = graph
        .nodes
        .iter()
        .map(|n| nfp_core::nf::catalogue::make(n.name.as_str()).unwrap())
        .collect();

    // 4. Run packets through the deterministic engine. (For multi-core
    //    scale-out, hand the same Program to `ShardedEngine::new` with a
    //    shard count — DESIGN.md §11.)
    let mut engine = SyncEngine::new(program, nfs, 64);
    let mut gen = TrafficGenerator::new(TrafficSpec {
        flows: 4,
        sizes: SizeDistribution::Fixed(128),
        ..TrafficSpec::default()
    });
    for i in 0..5 {
        let pkt = gen.next_packet();
        let before = pkt.five_tuple().unwrap();
        match engine.process(pkt).unwrap().delivered() {
            Some(out) => {
                let after = out.five_tuple().unwrap();
                println!(
                    "pkt {i}: {}:{} -> {}:{}  became  {}:{} -> {}:{}  (LB rewrote the addresses)",
                    before.0, before.2, before.1, before.3, after.0, after.2, after.1, after.3
                );
            }
            None => println!("pkt {i}: dropped"),
        }
    }
    println!(
        "\ndelivered={} dropped={}",
        engine.delivered, engine.dropped
    );
}
