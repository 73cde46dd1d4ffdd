//! Pins every planner's output against a committed golden file: for all
//! five schemes on two models over a grid of GPU counts, microbatches,
//! pack sizes, group sizes and the recompute knob, each plan's name,
//! replica count, scheme knobs, samples per iteration, per-GPU demand
//! and every work queue, one compact line per queue. Traces, summaries
//! and every digest downstream read these, so a change to how queues
//! are built must leave this table byte-identical.
//!
//! Queue items: `F<pack>.<ubatch>` forward, `L<ubatch>` loss,
//! `B<pack>.<ubatch>` backward, `U<pack>` update, `R<pack>` AllReduce.
//! A task item on a replica other than the queue's first task's carries
//! an `@<replica>` suffix.

use std::fmt::Write;

use harmony_models::{cnn, ModelSpec, TransformerConfig};
use harmony_sched::{
    plan_baseline_dp, plan_baseline_pp, plan_harmony_dp, plan_harmony_pp, plan_pipe_1f1b,
    ExecutionPlan, WorkItem, WorkloadConfig,
};
use harmony_taskgraph::{GraphError, TaskKind};

const GOLDEN: &str = include_str!("plan_queues.golden");

type Planner = fn(&ModelSpec, usize, &WorkloadConfig) -> Result<ExecutionPlan, GraphError>;

const PLANNERS: [(&str, Planner); 5] = [
    ("plan_baseline_dp", plan_baseline_dp),
    ("plan_harmony_dp", plan_harmony_dp),
    ("plan_baseline_pp", plan_baseline_pp),
    ("plan_harmony_pp", plan_harmony_pp),
    ("plan_pipe_1f1b", plan_pipe_1f1b),
];

/// One plan's header fields and its queues, one per line.
fn render(out: &mut String, plan: &ExecutionPlan) {
    writeln!(out, "name {}", plan.name).unwrap();
    writeln!(out, "replicas {}", plan.replicas).unwrap();
    writeln!(out, "scheme {:?}", plan.scheme).unwrap();
    writeln!(out, "graph {:?}", plan.graph.config()).unwrap();
    writeln!(out, "samples {}", plan.samples_per_iteration).unwrap();
    writeln!(out, "demand {:?}", plan.demand_bytes).unwrap();
    for (g, q) in plan.queues.iter().enumerate() {
        let home = q.iter().find_map(|item| match *item {
            WorkItem::Task { replica, .. } => Some(replica),
            WorkItem::AllReduce { .. } => None,
        });
        write!(out, "gpu{g}").unwrap();
        if let Some(r) = home {
            write!(out, " r{r}").unwrap();
        }
        out.push(':');
        for item in q {
            match *item {
                WorkItem::Task { replica, task } => {
                    match plan.graph.task(task).kind {
                        TaskKind::Forward { pack, ubatch } => write!(out, " F{pack}.{ubatch}"),
                        TaskKind::Loss { ubatch } => write!(out, " L{ubatch}"),
                        TaskKind::Backward { pack, ubatch } => write!(out, " B{pack}.{ubatch}"),
                        TaskKind::Update { pack } => write!(out, " U{pack}"),
                    }
                    .unwrap();
                    if Some(replica) != home {
                        write!(out, "@{replica}").unwrap();
                    }
                }
                WorkItem::AllReduce { pack } => write!(out, " R{pack}").unwrap(),
            }
        }
        out.push('\n');
    }
}

fn actual() -> String {
    let models = [
        ("tiny", TransformerConfig::tiny().build()),
        ("lenet", cnn::lenet()),
    ];
    let mut out = String::new();
    for (model_name, model) in &models {
        for (planner_name, planner) in PLANNERS {
            for n in [1, 2, 3] {
                for microbatches in [1, 3] {
                    for pack_size in [1, 2] {
                        for group_size in [None, Some(2)] {
                            for recompute in [false, true] {
                                let w = WorkloadConfig {
                                    microbatches,
                                    ubatch_size: 2,
                                    pack_size,
                                    opt_slots: 2,
                                    group_size,
                                    recompute,
                                };
                                writeln!(
                                    out,
                                    "== {planner_name} {model_name} N={n} m={microbatches} \
                                     pack={pack_size} group={group_size:?} \
                                     recompute={recompute}"
                                )
                                .unwrap();
                                let plan = planner(model, n, &w).expect("plannable cell");
                                render(&mut out, &plan);
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

#[test]
fn every_plan_matches_the_golden_queues() {
    let actual = actual();
    for (i, (want, got)) in GOLDEN.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "plan table differs at golden line {}", i + 1);
    }
    assert_eq!(
        GOLDEN.lines().count(),
        actual.lines().count(),
        "plan table line count differs from the golden file"
    );
}
