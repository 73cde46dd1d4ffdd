//! The `repro custom` subcommand: run any model × scheme × server
//! configuration from the command line and print the summary (optionally
//! with a Gantt chart). Flags parse through the shared [`cli::CUSTOM`]
//! grammar.

use harmony::prelude::*;
use harmony::simulate::SchemeKind;

use crate::cli;

/// Builds one published model.
pub type ModelBuilder = fn() -> ModelSpec;

/// Every model `--model` accepts, with its builder: the one list the
/// parser, the usage text and [`resolve_model`] read.
pub const MODELS: [(&str, ModelBuilder); 8] = [
    ("bert_large", || TransformerConfig::bert_large().build()),
    ("bert_xxl", || TransformerConfig::bert_xxl().build()),
    ("gpt2_xl", || TransformerConfig::gpt2_xl().build()),
    ("gpt_10b", || TransformerConfig::gpt_10b().build()),
    ("lenet", harmony_models::cnn::lenet),
    ("alexnet", harmony_models::cnn::alexnet),
    ("gnmt", harmony_models::seq2seq::gnmt),
    ("t5_11b", harmony_models::seq2seq::t5_11b),
];

/// Parsed `custom` arguments: one [`RunSpec`] plus the model and server
/// it runs on.
#[derive(Debug, Clone)]
pub struct CustomArgs {
    /// Model name, a key of [`MODELS`].
    pub model: &'static str,
    /// GPU count.
    pub gpus: usize,
    /// Per-GPU memory in bytes (`--mem-gib` × 2³⁰, rounded).
    pub gpu_mem: u64,
    /// Scheme, workload knobs, prefetch and iterations.
    pub run: RunSpec,
    /// Render a Gantt chart.
    pub gantt: bool,
}

impl CustomArgs {
    /// Reads `custom` flags already parsed against [`cli::CUSTOM`]; the
    /// error is the diagnostic to print before exiting 2. Absent flags
    /// keep the defaults: `bert_xxl`, `harmony-pp`, 4 × 11 GiB GPUs,
    /// [`WorkloadConfig::default`], one iteration.
    pub fn from_flags(p: &cli::Parsed) -> Result<Self, String> {
        let count = |name: &str, default: usize| p.value(name).map_or(default, |v| v as usize);
        let base = WorkloadConfig::default();
        let workload = WorkloadConfig {
            microbatches: count("--microbatches", base.microbatches),
            ubatch_size: p.value("--ubatch").unwrap_or(base.ubatch_size),
            pack_size: count("--pack", base.pack_size),
            opt_slots: p.value("--opt-slots").unwrap_or(base.opt_slots),
            group_size: p.value("--group").map(|g| g as usize),
            recompute: p.has("--recompute"),
        };
        let iterations = match p.value("--iterations") {
            None => 1,
            Some(k) => u32::try_from(k)
                .map_err(|_| format!("--iterations takes a positive integer, got `{k}`"))?,
        };
        let scheme = p.scheme("--scheme").unwrap_or(SchemeKind::HarmonyPp);
        let gpus = count("--gpus", 4);
        if let Some(group) = workload.group_size {
            check_group(scheme, group, workload.microbatches, gpus)?;
        }
        Ok(CustomArgs {
            model: p.model("--model").unwrap_or("bert_xxl"),
            gpus,
            gpu_mem: gib_to_bytes(p.float("--mem-gib").unwrap_or(11.0))?,
            run: RunSpec {
                prefetch: p.has("--prefetch"),
                iterations,
                ..RunSpec::new(scheme, workload)
            },
            gantt: p.has("--gantt"),
        })
    }
}

/// `--group G` against the scheme it would shape: only the Harmony
/// schemes group microbatches, and a group cannot exceed the microbatches
/// the planner groups — m for harmony-dp, m·N for harmony-pp, whose
/// pipeline feeds every stage all m·N. The planners clamp instead; a
/// flag that would be ignored or clamped is a usage error here.
fn check_group(scheme: SchemeKind, group: usize, m: usize, gpus: usize) -> Result<(), String> {
    let grouped = match scheme {
        SchemeKind::HarmonyDp => m,
        SchemeKind::HarmonyPp => m.saturating_mul(gpus),
        _ => {
            return Err(format!(
                "--group does not apply to {}: only harmony-dp and harmony-pp group microbatches",
                scheme.name()
            ))
        }
    };
    if group > grouped {
        return Err(format!(
            "--group {group} exceeds the {grouped} microbatches {} groups",
            scheme.name()
        ));
    }
    Ok(())
}

/// `--mem-gib` as a byte count: GiB × 2³⁰, rounded. A value that rounds
/// to 0 B or exceeds `u64::MAX` is a usage error, never a 0-byte GPU or
/// a saturated `u64::MAX`-byte one.
fn gib_to_bytes(gib: f64) -> Result<u64, String> {
    let bytes = (gib * (1u64 << 30) as f64).round();
    // `u64::MAX as f64` rounds up to 2^64, the first value that does
    // not fit.
    if bytes < 1.0 {
        Err(format!("--mem-gib {gib:?} rounds to 0 B per GPU"))
    } else if bytes >= u64::MAX as f64 {
        Err(format!(
            "--mem-gib {gib:?} exceeds {} B per GPU, the largest byte count",
            u64::MAX
        ))
    } else {
        Ok(bytes as u64)
    }
}

/// The `repro custom` usage text, printed by `--help`.
pub fn usage() -> String {
    format!(
        "usage: repro custom {}\nschemes: {}\nmodels: {}",
        cli::CUSTOM.expected,
        cli::scheme_names(),
        cli::model_names()
    )
}

/// Resolves a model name to a spec.
pub fn resolve_model(name: &str) -> Result<ModelSpec, String> {
    MODELS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, build)| build())
        .ok_or_else(|| format!("unknown model `{name}`"))
}

/// Runs the configuration and returns the rendered report.
pub fn run(args: &CustomArgs) -> Result<String, String> {
    let model = resolve_model(args.model)?;
    let (pack, layers) = (args.run.workload.pack_size, model.num_layers());
    if pack > layers {
        return Err(format!(
            "--pack {pack} exceeds {}'s {layers} layers",
            args.model
        ));
    }
    let topo = presets::commodity_server(presets::CommodityParams {
        gpu_mem: args.gpu_mem,
        ..presets::CommodityParams::gtx_1080ti(args.gpus, args.gpus.max(1))
    })
    .map_err(|e| e.to_string())?;
    // Only `--gantt` reads the trace; without it the run records none.
    let (summary, trace) = if args.gantt {
        let (summary, trace) = args.run.run(&model, &topo).map_err(|e| e.to_string())?;
        (summary, Some(trace))
    } else {
        let summary = args
            .run
            .run_summary(&model, &topo)
            .map_err(|e| e.to_string())?;
        (summary, None)
    };
    let (w, iterations) = (&args.run.workload, args.run.iterations);
    let mut out = String::new();
    out.push_str(&format!(
        "model     : {} ({:.2} M params, {:.2} GB training state)\n",
        model.name,
        model.total_params() as f64 / 1e6,
        (model.total_params() * (8 + 4 * w.opt_slots)) as f64 / 1e9,
    ));
    out.push_str(&format!("server    : {}\n", topo.name));
    out.push_str(&format!(
        "workload  : m={} ubatch={} pack={} group={:?} recompute={} prefetch={} iterations={}\n\n",
        w.microbatches,
        w.ubatch_size,
        w.pack_size,
        w.group_size,
        w.recompute,
        args.run.prefetch,
        iterations,
    ));
    out.push_str(&summary.one_line());
    out.push('\n');
    let mut t = Table::new(
        "Swap volume by tensor class",
        &["class", "GB", "per iteration"],
    );
    for (class, bytes) in &summary.swap_by_class {
        if *bytes > 0 {
            t.row(&[class.clone(), gb(*bytes), gb(bytes / iterations as u64)]);
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
    if let Some(trace) = trace {
        out.push('\n');
        out.push_str(&gantt::render(&trace, 110));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `custom` arguments `s` through the command's grammar.
    fn parse(s: &str) -> Result<CustomArgs, String> {
        let args: Vec<String> = s.split_whitespace().map(str::to_string).collect();
        CustomArgs::from_flags(&cli::parse(&cli::CUSTOM, &args)?)
    }

    #[test]
    fn parse_roundtrips_flags() {
        let a = parse(
            "--model gpt_10b --scheme harmony-pp --gpus 2 --mem-gib 8.5 --microbatches 3 \
             --ubatch 2 --pack 2 --group 2 --opt-slots 0 --recompute --prefetch \
             --iterations 2 --gantt",
        )
        .unwrap();
        assert_eq!(a.model, "gpt_10b");
        assert_eq!(a.run.scheme, SchemeKind::HarmonyPp);
        assert_eq!(a.gpus, 2);
        assert_eq!(a.gpu_mem, 17 << 29);
        let w = a.run.workload;
        assert_eq!((w.microbatches, w.ubatch_size, w.pack_size), (3, 2, 2));
        assert_eq!(w.group_size, Some(2));
        assert_eq!(w.opt_slots, 0);
        assert!(w.recompute && a.run.prefetch && a.gantt);
        assert_eq!(a.run.iterations, 2);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "--bogus",
            "--scheme nonsense",
            "--model skynet",
            "--gpus",
            "--mem-gib 8 --mem-gib",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
        for (bad, flag) in [
            ("--group 0", "--group"),
            ("--gpus 0", "--gpus"),
            ("--iterations 0", "--iterations"),
            ("--iterations 4294967296", "--iterations"),
            ("--mem-gib inf", "--mem-gib"),
            ("--mem-gib nan", "--mem-gib"),
            ("--mem-gib -3", "--mem-gib"),
            ("--mem-gib 0", "--mem-gib"),
            ("--mem-gib 1e-12", "--mem-gib"),
            ("--mem-gib 1e30", "--mem-gib"),
        ] {
            let e = parse(bad).unwrap_err();
            assert!(e.contains(flag), "{bad}: {e}");
        }
    }

    #[test]
    fn parse_accepts_every_shared_scheme_name() {
        for scheme in SchemeKind::ALL {
            let a = parse(&format!("--scheme {}", scheme.name())).unwrap();
            assert_eq!(a.run.scheme, scheme);
        }
        let e = parse("--scheme pipe-1f2b").unwrap_err();
        assert!(
            e.contains("baseline-dp|baseline-pp|harmony-dp|harmony-pp|pipe-1f1b"),
            "{e}"
        );
        assert!(usage().contains("pipe-1f1b"));
    }

    #[test]
    fn resolve_knows_every_published_model() {
        for (name, _) in MODELS {
            assert!(resolve_model(name).is_ok(), "{name}");
            assert!(usage().contains(name), "usage must list {name}");
            let a = parse(&format!("--model {name}")).unwrap();
            assert_eq!(a.model, name);
        }
        assert!(resolve_model("skynet").is_err());
    }

    #[test]
    fn custom_run_end_to_end() {
        let mut args = parse("--model lenet --scheme harmony-dp --gpus 2 --ubatch 1").unwrap();
        args.run.workload.microbatches = 1;
        let report = run(&args).unwrap();
        assert!(report.contains("lenet"));
        assert!(report.contains("samples/s"));
    }
}
