//! Property-based tests on task-graph invariants for arbitrary models and
//! decomposition configs.

use harmony_memory::TensorClass;
use harmony_models::{LayerClass, LayerSpec, ModelSpec};
use harmony_taskgraph::{GraphConfig, TaskGraph, TaskKind, TensorRef};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

fn model_strategy() -> impl Strategy<Value = ModelSpec> {
    prop::collection::vec((1u64..5000, 1u64..300, 0u64..300), 1..12).prop_map(|layers| ModelSpec {
        name: "prop".to_string(),
        layers: layers
            .into_iter()
            .enumerate()
            .map(|(i, (params, out, extra))| LayerSpec {
                name: format!("L{i}"),
                class: LayerClass::Other,
                params,
                fwd_flops_per_sample: params * 2,
                out_elems_per_sample: out,
                extra_stash_elems_per_sample: extra,
                in_elems_per_sample: out,
            })
            .collect(),
        seq_len: 1,
    })
}

fn config_strategy() -> impl Strategy<Value = GraphConfig> {
    (1usize..6, 1u64..8, 1usize..6, 0u64..3).prop_map(|(m, ub, pack, opt)| GraphConfig {
        microbatches: m,
        ubatch_size: ub,
        pack_size: pack,
        opt_slots: opt,
        ..GraphConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn graph_structure_invariants(model in model_strategy(), cfg in config_strategy()) {
        let g = TaskGraph::build(&model, cfg).unwrap();
        let m = cfg.microbatches;
        let np = g.packs().len();
        let r = model.layers.len();

        // Pack coverage: contiguous, complete, none empty.
        prop_assert_eq!(g.packs().iter().map(|p| p.len()).sum::<usize>(), r);
        prop_assert_eq!(g.packs()[0].start, 0);
        for w in g.packs().windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
        prop_assert!(g.packs().iter().all(|p| !p.is_empty()));

        // Task count: m·np forwards + m losses + m·np backwards + np updates.
        prop_assert_eq!(g.tasks().len(), 2 * m * np + m + np);

        // Topological order exists and respects deps.
        let order = g.topo_order();
        prop_assert_eq!(order.len(), g.tasks().len());
        let pos: HashMap<_, _> = order.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        for t in g.tasks() {
            for &d in t.deps {
                prop_assert!(pos[&d] < pos[&t.id]);
            }
        }
    }

    #[test]
    fn every_allocated_tensor_is_eventually_freed_or_persistent(
        model in model_strategy(),
        cfg in config_strategy(),
    ) {
        let g = TaskGraph::build(&model, cfg).unwrap();
        let mut freed: HashSet<TensorRef> = HashSet::new();
        let mut written: HashSet<TensorRef> = HashSet::new();
        for t in g.tasks() {
            for &f in t.frees {
                prop_assert!(!freed.contains(&f), "double free of {:?}", f);
                freed.insert(f);
            }
            written.extend(t.writes.iter().copied());
        }
        // Transient tensors (activations, stashes, act-grads) all die;
        // persistent state (W, dW, K) never does.
        for w in &written {
            match w.class() {
                TensorClass::Weight | TensorClass::Grad | TensorClass::OptState => {
                    prop_assert!(!freed.contains(w), "persistent {:?} freed", w);
                }
                TensorClass::Activation | TensorClass::Stash => {
                    prop_assert!(freed.contains(w), "leaked {:?}", w);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn reads_are_always_produced_before_use(
        model in model_strategy(),
        cfg in config_strategy(),
    ) {
        let g = TaskGraph::build(&model, cfg).unwrap();
        let order = g.topo_order();
        let mut live: HashSet<TensorRef> = HashSet::new();
        // Persistent tensors and inputs pre-exist.
        for l in 0..model.layers.len() {
            live.insert(TensorRef::Weight { layer: l });
            live.insert(TensorRef::Grad { layer: l });
            live.insert(TensorRef::OptState { layer: l });
        }
        for u in 0..cfg.microbatches {
            live.insert(TensorRef::Input { ubatch: u });
        }
        for &tid in &order {
            let t = g.task(tid);
            for rf in t.reads {
                prop_assert!(live.contains(rf), "{:?} reads unproduced {:?}", t.kind, rf);
            }
            for &w in t.writes {
                live.insert(w);
            }
            for f in t.frees {
                live.remove(f);
            }
        }
    }

    #[test]
    fn footprints_and_flops_are_monotone_in_ubatch_size(
        model in model_strategy(),
        m in 1usize..4,
        pack in 1usize..4,
    ) {
        let mk = |ub: u64| {
            TaskGraph::build(&model, GraphConfig {
                microbatches: m,
                ubatch_size: ub,
                pack_size: pack,
                opt_slots: 2,
                ..GraphConfig::default()
            }).unwrap()
        };
        let g1 = mk(1);
        let g4 = mk(4);
        for (a, b) in g1.tasks().zip(g4.tasks()) {
            prop_assert_eq!(a.kind, b.kind);
            prop_assert!(b.flops >= a.flops);
            prop_assert!(
                g4.task_footprint_bytes(b.id, &model) >= g1.task_footprint_bytes(a.id, &model)
            );
        }
    }

    #[test]
    fn update_waits_for_all_its_backwards(model in model_strategy(), cfg in config_strategy()) {
        let g = TaskGraph::build(&model, cfg).unwrap();
        for (p, _) in g.packs().iter().enumerate() {
            let u_id = g.id_of(TaskKind::Update { pack: p }).unwrap();
            let deps = g.task(u_id).deps;
            prop_assert_eq!(deps.len(), cfg.microbatches);
            for u in 0..cfg.microbatches {
                let b = g.id_of(TaskKind::Backward { pack: p, ubatch: u }).unwrap();
                prop_assert!(deps.contains(&b));
            }
        }
    }

    #[test]
    fn every_ref_lies_within_the_graph_dimensions(
        model in model_strategy(),
        cfg in config_strategy(),
        recompute in any::<bool>(),
        weight_stash in any::<bool>(),
    ) {
        // The executor sizes its key space from these two bounds alone.
        let g = TaskGraph::build(&model, GraphConfig { recompute, weight_stash, ..cfg }).unwrap();
        prop_assert_eq!(g.num_layers(), model.layers.len());
        for t in g.tasks() {
            for &rf in t.reads.iter().chain(t.writes).chain(t.frees) {
                let (layer, ubatch) = match rf {
                    TensorRef::Weight { layer }
                    | TensorRef::Grad { layer }
                    | TensorRef::OptState { layer } => (layer, 0),
                    TensorRef::Activation { layer, ubatch }
                    | TensorRef::ActGrad { layer, ubatch }
                    | TensorRef::Stash { layer, ubatch }
                    | TensorRef::WeightStash { layer, ubatch } => (layer, ubatch),
                    TensorRef::Input { ubatch } => (0, ubatch),
                };
                prop_assert!(layer < g.num_layers() && ubatch < cfg.microbatches, "{:?}", rf);
            }
        }
    }

    #[test]
    fn id_of_is_the_position_of_every_built_kind(
        model in model_strategy(),
        cfg in config_strategy(),
        recompute in any::<bool>(),
        weight_stash in any::<bool>(),
    ) {
        let g = TaskGraph::build(&model, GraphConfig { recompute, weight_stash, ..cfg }).unwrap();
        let tasks: Vec<_> = g.tasks().collect();
        for t in &tasks {
            let found = tasks.iter().position(|s| s.kind == t.kind);
            prop_assert_eq!(g.id_of(t.kind), found);
            prop_assert_eq!(found, Some(t.id));
        }
        // Out-of-range packs and microbatches name no task.
        let (np, m) = (g.packs().len(), cfg.microbatches);
        for kind in [
            TaskKind::Forward { pack: np, ubatch: 0 },
            TaskKind::Forward { pack: 0, ubatch: m },
            TaskKind::Loss { ubatch: m },
            TaskKind::Backward { pack: np, ubatch: 0 },
            TaskKind::Backward { pack: 0, ubatch: m },
            TaskKind::Update { pack: np },
        ] {
            prop_assert_eq!(g.id_of(kind), None);
        }
    }

    #[test]
    fn every_tensor_list_is_duplicate_free(
        model in model_strategy(),
        cfg in config_strategy(),
        recompute in any::<bool>(),
        weight_stash in any::<bool>(),
    ) {
        // The executor takes a task's reads then its fresh writes as the
        // deduplicated reads ∪ writes; that relies on this.
        let g = TaskGraph::build(&model, GraphConfig { recompute, weight_stash, ..cfg }).unwrap();
        for t in g.tasks() {
            for (what, list) in [("reads", t.reads), ("writes", t.writes), ("frees", t.frees)] {
                let distinct: HashSet<&TensorRef> = list.iter().collect();
                prop_assert_eq!(distinct.len(), list.len(), "{:?} {} repeats a tensor", t.kind, what);
            }
            let fresh: Vec<TensorRef> =
                t.writes.iter().copied().filter(|w| !t.reads.contains(w)).collect();
            prop_assert_eq!(t.fresh_writes, fresh.as_slice());
            let mut union: Vec<TensorRef> = Vec::new();
            for &rf in t.reads.iter().chain(t.writes) {
                if !union.contains(&rf) {
                    union.push(rf);
                }
            }
            prop_assert_eq!(t.touched().collect::<Vec<_>>(), union.clone());
            prop_assert_eq!(g.touched(t.id).collect::<Vec<_>>(), union);
        }
    }

    #[test]
    fn successors_and_topo_order_match_a_naive_recomputation(
        model in model_strategy(),
        cfg in config_strategy(),
        recompute in any::<bool>(),
    ) {
        let g = TaskGraph::build(&model, GraphConfig { recompute, ..cfg }).unwrap();
        let n = g.num_tasks();
        let mut naive: Vec<Vec<usize>> = vec![Vec::new(); n];
        for t in g.tasks() {
            for &d in t.deps {
                naive[d].push(t.id);
            }
        }
        let succs = g.successors();
        for (id, expected) in naive.iter().enumerate() {
            prop_assert_eq!(&succs[id], expected.as_slice());
        }
        // Kahn's algorithm taking the smallest ready id each step.
        let mut indeg: Vec<usize> = g.tasks().map(|t| t.deps.len()).collect();
        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::new();
        while let Some((i, &t)) = ready.iter().enumerate().min_by_key(|&(_, &t)| t) {
            ready.swap_remove(i);
            order.push(t);
            for &s in &naive[t] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.push(s);
                }
            }
        }
        prop_assert_eq!(g.topo_order(), order);
    }
}
