//! The `repro custom` subcommand: run any model × scheme × server
//! configuration from the command line and print the summary (optionally
//! with a Gantt chart). Argument parsing is hand-rolled to keep the
//! dependency set fixed.

use harmony::prelude::*;
use harmony::simulate::{self, SchemeKind};
use harmony_sched::SimExecutor;

/// Parsed `custom` arguments.
#[derive(Debug, Clone)]
pub struct CustomArgs {
    /// Model name (see [`resolve_model`]).
    pub model: String,
    /// Scheme name.
    pub scheme: SchemeKind,
    /// GPU count.
    pub gpus: usize,
    /// Per-GPU memory in GiB.
    pub mem_gib: f64,
    /// Workload knobs.
    pub workload: WorkloadConfig,
    /// Iterations to replay.
    pub iterations: u32,
    /// Enable prefetch/double-buffering.
    pub prefetch: bool,
    /// Render a Gantt chart.
    pub gantt: bool,
}

impl Default for CustomArgs {
    fn default() -> Self {
        CustomArgs {
            model: "bert_xxl".to_string(),
            scheme: SchemeKind::HarmonyPp,
            gpus: 4,
            mem_gib: 11.0,
            workload: WorkloadConfig::default(),
            iterations: 1,
            prefetch: false,
            gantt: false,
        }
    }
}

/// The `repro custom` usage text, printed by `--help` and on bad input.
pub fn usage() -> String {
    format!(
        "usage: repro custom [--model NAME] [--scheme {}] \
         [--gpus N] [--mem-gib G] [--microbatches M] [--ubatch U] [--pack P] [--group G] \
         [--opt-slots S] [--recompute] [--prefetch] [--iterations K] [--gantt]\n\
         models: bert_large bert_xxl gpt2_xl gpt_10b lenet alexnet gnmt t5_11b",
        crate::cli::scheme_names()
    )
}

/// Parses one flag value, naming the flag in the error.
fn num<T: std::str::FromStr>(name: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{name} takes a number, got `{v}`"))
}

/// Parses `custom` flags. Returns an error string (usage) on bad input.
pub fn parse(args: &[String]) -> Result<CustomArgs, String> {
    let mut out = CustomArgs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--model" => out.model = val("--model")?,
            "--scheme" => {
                let name = val("--scheme")?;
                out.scheme = SchemeKind::from_name(&name).ok_or_else(|| {
                    format!(
                        "unknown scheme `{name}`; valid schemes: {}\n{}",
                        crate::cli::scheme_names(),
                        usage()
                    )
                })?
            }
            "--gpus" => out.gpus = num("--gpus", &val("--gpus")?)?,
            "--mem-gib" => out.mem_gib = num("--mem-gib", &val("--mem-gib")?)?,
            "--microbatches" => {
                out.workload.microbatches = num("--microbatches", &val("--microbatches")?)?
            }
            "--ubatch" => out.workload.ubatch_size = num("--ubatch", &val("--ubatch")?)?,
            "--pack" => out.workload.pack_size = num("--pack", &val("--pack")?)?,
            "--group" => match num("--group", &val("--group")?)? {
                0 => return Err("--group must be a positive integer, got `0`".to_string()),
                g => out.workload.group_size = Some(g),
            },
            "--opt-slots" => out.workload.opt_slots = num("--opt-slots", &val("--opt-slots")?)?,
            "--iterations" => out.iterations = num("--iterations", &val("--iterations")?)?,
            "--recompute" => out.workload.recompute = true,
            "--prefetch" => out.prefetch = true,
            "--gantt" => out.gantt = true,
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok(out)
}

/// Resolves a model name to a spec.
pub fn resolve_model(name: &str) -> Result<ModelSpec, String> {
    Ok(match name {
        "bert_large" => TransformerConfig::bert_large().build(),
        "bert_xxl" => TransformerConfig::bert_xxl().build(),
        "gpt2_xl" => TransformerConfig::gpt2_xl().build(),
        "gpt_10b" => TransformerConfig::gpt_10b().build(),
        "lenet" => harmony_models::cnn::lenet(),
        "alexnet" => harmony_models::cnn::alexnet(),
        "gnmt" => harmony_models::seq2seq::gnmt(),
        "t5_11b" => harmony_models::seq2seq::t5_11b(),
        other => return Err(format!("unknown model `{other}`")),
    })
}

/// Runs the configuration and returns the rendered report.
pub fn run(args: &CustomArgs) -> Result<String, String> {
    let model = resolve_model(&args.model)?;
    let topo = presets::commodity_server(presets::CommodityParams {
        num_gpus: args.gpus,
        gpus_per_switch: args.gpus.max(1),
        pcie_bw: 12.0 * presets::GBPS,
        host_uplink_bw: 12.0 * presets::GBPS,
        gpu_mem: (args.mem_gib * (1u64 << 30) as f64) as u64,
        gpu_flops: 11.3e12,
    })
    .map_err(|e| e.to_string())?;
    let mut plan =
        simulate::plan(args.scheme, &model, &topo, &args.workload).map_err(|e| e.to_string())?;
    if args.prefetch {
        plan.scheme = plan.scheme.clone().with_prefetch();
    }
    let (summary, trace) = SimExecutor::with_iterations(&topo, &model, &plan, args.iterations)
        .and_then(|e| e.run())
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    out.push_str(&format!(
        "model     : {} ({:.2} M params, {:.2} GB training state)\n",
        model.name,
        model.total_params() as f64 / 1e6,
        (model.total_params() * (8 + 4 * args.workload.opt_slots)) as f64 / 1e9,
    ));
    out.push_str(&format!("server    : {}\n", topo.name));
    out.push_str(&format!(
        "workload  : m={} ubatch={} pack={} group={:?} recompute={} prefetch={} iterations={}\n\n",
        args.workload.microbatches,
        args.workload.ubatch_size,
        args.workload.pack_size,
        args.workload.group_size,
        args.workload.recompute,
        args.prefetch,
        args.iterations,
    ));
    out.push_str(&summary.one_line());
    out.push('\n');
    let mut t = Table::new(
        "Swap volume by tensor class",
        &["class", "GB", "per iteration"],
    );
    for (class, bytes) in &summary.swap_by_class {
        if *bytes > 0 {
            t.row(&[
                class.clone(),
                gb(*bytes),
                gb(bytes / args.iterations as u64),
            ]);
        }
    }
    out.push('\n');
    out.push_str(&t.render());
    if let Some(u) = summary.channel_utilisation("->host") {
        out.push_str(&format!(
            "\nhost-uplink utilisation (out): {:.0}%\n",
            u * 100.0
        ));
    }
    if args.gantt {
        out.push('\n');
        out.push_str(&gantt::render(&trace, 110));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parse_roundtrips_flags() {
        let a = parse(&argv(
            "--model gpt_10b --scheme harmony-pp --gpus 2 --mem-gib 8 --microbatches 3 \
             --ubatch 2 --pack 2 --group 2 --opt-slots 0 --recompute --prefetch \
             --iterations 2 --gantt",
        ))
        .unwrap();
        assert_eq!(a.model, "gpt_10b");
        assert_eq!(a.scheme, SchemeKind::HarmonyPp);
        assert_eq!(a.gpus, 2);
        assert_eq!(a.workload.microbatches, 3);
        assert_eq!(a.workload.group_size, Some(2));
        assert_eq!(a.workload.opt_slots, 0);
        assert!(a.workload.recompute && a.prefetch && a.gantt);
        assert_eq!(a.iterations, 2);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse(&argv("--bogus")).is_err());
        assert!(parse(&argv("--scheme nonsense")).is_err());
        assert!(parse(&argv("--gpus")).is_err());
        let e = parse(&argv("--group 0")).unwrap_err();
        assert!(e.contains("--group"), "{e}");
    }

    #[test]
    fn parse_accepts_every_shared_scheme_name() {
        for scheme in SchemeKind::ALL {
            let a = parse(&argv(&format!("--scheme {}", scheme.name()))).unwrap();
            assert_eq!(a.scheme, scheme);
        }
        let e = parse(&argv("--scheme pipe-1f2b")).unwrap_err();
        assert!(
            e.contains("baseline-dp|baseline-pp|harmony-dp|harmony-pp|pipe-1f1b"),
            "{e}"
        );
        assert!(usage().contains("pipe-1f1b"));
    }

    #[test]
    fn resolve_knows_every_published_model() {
        for name in [
            "bert_large",
            "bert_xxl",
            "gpt2_xl",
            "gpt_10b",
            "lenet",
            "alexnet",
            "gnmt",
            "t5_11b",
        ] {
            assert!(resolve_model(name).is_ok(), "{name}");
        }
        assert!(resolve_model("skynet").is_err());
    }

    #[test]
    fn custom_run_end_to_end() {
        let mut args = parse(&argv(
            "--model lenet --scheme harmony-dp --gpus 2 --ubatch 1",
        ))
        .unwrap();
        args.workload.microbatches = 1;
        let report = run(&args).unwrap();
        assert!(report.contains("lenet"));
        assert!(report.contains("samples/s"));
    }
}
