//! Cross-checks a run makes once, after its timed passes: the sharded
//! run against one domain, and the benchmark's own web-search drive
//! against `quartz_workload::run_workload`.

use crate::gate::Gate;
use crate::workloads::{
    build_fabric, finish, setup, Digest, EngineKind, Inputs, Report, Size, Workload,
};
use quartz_core::pool::ThreadPool;
use quartz_netsim::transport::TcpVariant;
use quartz_workload::dist::WEBSEARCH;
use quartz_workload::report::WorkloadReport;
use quartz_workload::run::{run_workload, variant_name, WorkloadConfig};
use quartz_workload::spec::WorkloadSpec;

/// Runs the cross-checks that apply to `inputs.workload`. `digest` and
/// `report` come from a timed pass of the end-to-end engine.
pub fn cross_check(inputs: &Inputs, size: Size, digest: &Digest, report: &Report, gate: &mut Gate) {
    match inputs.workload {
        Workload::CompositeScale => {
            let mut one = setup(inputs, EngineKind::Sharded(1), size);
            one.run(inputs.horizon, &ThreadPool::sequential());
            let (_, one_digest) = finish(inputs, &mut one, gate);
            gate.same_digest("composite_scale 1 vs 4 domains", &one_digest, digest);
        }
        Workload::WebsearchDctcp => {
            let (net, hosts) = build_fabric(inputs.workload, size);
            let spec = websearch_spec();
            let mut cfg = WorkloadConfig::new(spec.clone(), TcpVariant::Dctcp, inputs.seed);
            cfg.window = inputs.window;
            cfg.horizon = inputs.horizon;
            match run_workload(net, &hosts, &cfg) {
                Ok(theirs) => {
                    let ours = as_workload_report(inputs, &spec, report);
                    gate.same_digest(
                        "websearch_dctcp drive vs run_workload",
                        &workload_digest(&theirs),
                        &workload_digest(&ours),
                    );
                }
                Err(e) => gate.check(false, || format!("run_workload failed: {e}")),
            }
        }
        Workload::MeshPoisson => {}
    }
}

/// The workload crate's spec for the `websearch_dctcp` arrivals.
fn websearch_spec() -> WorkloadSpec {
    WorkloadSpec::Dist {
        dist: WEBSEARCH,
        load: 0.4,
    }
}

/// The benchmark's web-search report in the workload crate's shape.
fn as_workload_report(inputs: &Inputs, spec: &WorkloadSpec, r: &Report) -> WorkloadReport {
    let offered_bytes = inputs
        .flows
        .iter()
        .map(|f| match f.kind {
            quartz_netsim::sim::FlowKind::Transport { total_bytes, .. } => total_bytes,
            _ => 0,
        })
        .sum();
    WorkloadReport {
        spec: spec.name(),
        transport: variant_name(TcpVariant::Dctcp),
        seed: inputs.seed,
        flows: r.flows,
        completed: r.completed,
        offered_bytes,
        generated: r.generated,
        delivered: r.delivered,
        dropped: r.dropped,
        elapsed_ns: r.end_ns,
        buckets: r.buckets.clone(),
        collective: None,
    }
}

/// Every field of a workload report, floats by their bits.
fn workload_digest(r: &WorkloadReport) -> Digest {
    let mut fields = vec![
        ("flows".to_string(), r.flows as u64),
        ("completed".to_string(), r.completed as u64),
        ("offered_bytes".to_string(), r.offered_bytes),
        ("generated".to_string(), r.generated),
        ("delivered".to_string(), r.delivered),
        ("dropped".to_string(), r.dropped),
        ("elapsed_ns".to_string(), r.elapsed_ns),
    ];
    for b in &r.buckets {
        for (name, v) in [
            ("count", b.count as u64),
            ("mean_fct", b.mean_fct_us.to_bits()),
            ("p50_fct", b.p50_fct_us.to_bits()),
            ("p99_fct", b.p99_fct_us.to_bits()),
            ("p999_fct", b.p999_fct_us.to_bits()),
            ("p50_slowdown", b.p50_slowdown.to_bits()),
            ("p99_slowdown", b.p99_slowdown.to_bits()),
            ("p999_slowdown", b.p999_slowdown.to_bits()),
        ] {
            fields.push((format!("{}.{name}", b.label), v));
        }
    }
    Digest { fields }
}
