//! Implementation of the `harpgbdt` command-line tool.
//!
//! Subcommands:
//!
//! * `train`   — fit a model on a CSV/LIBSVM file, optionally validating
//!   against a second file with early stopping, and save it as JSON.
//! * `predict` — score a data file with a saved model (probabilities, raw
//!   margins, or argmax class ids).
//! * `serve`   — long-running TCP scoring server over the compiled forest
//!   (micro-batching, admission control, zero-downtime hot-swap).
//! * `eval`    — compute metrics of a saved model on a labeled file.
//! * `report`  — render, summarize, or diff run ledgers (and bench JSON)
//!   with per-metric tolerance thresholds, or judge serve latency
//!   histograms against `--slo` tail budgets; a tripped gate exits
//!   non-zero.
//! * `importance` — print per-feature gain/split importance.
//! * `dump`    — human-readable tree dump.
//! * `synth`   — generate one of the paper-shaped synthetic datasets to a
//!   CSV or LIBSVM file.
//!
//! All argument handling lives here (library) so it is unit-testable; the
//! binary in `main.rs` is a thin wrapper.

pub mod commands;
pub mod opts;

use std::fmt::Write as _;

/// One command: its name, its usage (what follows the name in [`usage`];
/// each `\n` starts a continuation line) and every flag it accepts.
pub struct Command {
    pub name: &'static str,
    pub usage: &'static str,
    /// The accepted flags, space-separated.
    pub(crate) flags: &'static str,
}

/// Every command, in the order [`usage`] lists them.
pub const COMMANDS: &[Command] = &[
    Command {
        name: "train",
        usage: "--data FILE --model FILE [training options]",
        flags: "--data --model --trees --tree-size --learning-rate --gamma --lambda \
                --min-child-weight --max-delta-step --growth --k --mode --threads --loss \
                --subsample --colsample --seed --blocks --auto-blocks --groups --valid \
                --valid-groups --early-stop --external-memory --mem-budget --cache \
                --rows-per-chunk --trace-out --ledger-out",
    },
    Command {
        name: "cache",
        usage: "--data FILE [--out FILE] [--rows-per-chunk N]   (build the\n\
                external-memory chunk cache ahead of training)",
        flags: "--data --out --rows-per-chunk",
    },
    Command {
        name: "predict",
        usage: "--model FILE --data FILE [--out FILE] [--raw|--class] [--threads N]",
        flags: "--model --data --out --raw --class --threads",
    },
    Command {
        name: "serve",
        usage: "--model FILE [--addr HOST:PORT] [--threads N] [--window-us N]\n\
                [--max-batch-rows N] [--queue-depth N] [--max-rows-per-req N]\n\
                [--watch-ms N] [--ledger-out FILE] [--ledger-every N] [--trace-out FILE]\n\
                [--metrics-addr HOST:PORT]  (plain-HTTP /metrics endpoint)",
        flags: "--model --addr --threads --window-us --max-batch-rows --queue-depth \
                --max-rows-per-req --watch-ms --ledger-out --ledger-every --trace-out \
                --metrics-addr",
    },
    Command {
        name: "eval",
        usage: "--model FILE --data FILE [--metric NAME] [--groups FILE] [--threads N]\n\
                (metrics: auto|auc|logloss|rmse|error|pinball[:A]|tweedie[:P]|huber[:D]|ndcg[:K])",
        flags: "--model --data --metric --groups --threads",
    },
    Command {
        name: "report",
        usage: "--ledger FILE | --diff A B | --bench-diff A B\n\
                [--tolerance F] [--warn F] [--time-tolerance F] [--time-floor SECS]\n\
                [--ignore PREFIX[,PREFIX...]]  (drop metrics by name prefix, e.g.\n\
                counter/chunk_ when diffing an in-core run against a chunked one)\n\
                --slo SPEC (--ledger FILE | --snapshot FILE)   e.g. predict:p99<5ms",
        flags: "--ledger --diff --bench-diff --tolerance --warn --time-tolerance --time-floor \
                --ignore --slo --snapshot",
    },
    Command { name: "importance", usage: "--model FILE [--top N]", flags: "--model --top" },
    Command { name: "dump", usage: "--model FILE", flags: "--model" },
    Command {
        name: "synth",
        usage: "--kind KIND --out FILE [--rows N] [--seed N]",
        flags: "--kind --out --rows --seed",
    },
];

impl Command {
    /// What `harpgbdt NAME --help` prints: the usage line and, for `train`,
    /// the objective registry and the training options.
    fn help(&self) -> String {
        let mut s =
            format!("usage: harpgbdt {} {}\n", self.name, self.usage.replace('\n', "\n    "));
        if self.name == "train" {
            let _ = writeln!(s, "\nobjectives (--loss NAME, default logistic):");
            s.push_str(&harpgbdt::objective::registry_help());
            let _ = write!(s, "\ntraining options:\n{}", training_options());
        }
        s
    }
}

/// The `train` flags beyond `--data` and `--model`.
fn training_options() -> String {
    format!(
        "  --trees N --tree-size D --learning-rate F --gamma F --lambda F
  --min-child-weight F --max-delta-step F (0 disables; ~0.7 tames tweedie)
  --growth leafwise|depthwise --k N
  --mode dp|mp|sync|async --threads N
  --loss {}
         (see `harpgbdt train --help` for the objective registry)
  --subsample F --colsample F --seed N
  --blocks R,N,F,B   (explicit block extents, 0 = unlimited)
  --auto-blocks      (cost-model block auto-tuner)
  --groups FILE      (query-group sizes, whitespace-separated; required by lambdarank)
  --valid FILE --valid-groups FILE --early-stop ROUNDS
  --external-memory  (train from a memory-mapped chunk cache instead of the
                      in-core quantized matrix; bitwise-identical models)
  --mem-budget BYTES (resident chunk budget, k/m/g suffixes; default 256m)
  --cache FILE       (default DATA.qsc; built on first use or by `harpgbdt cache`,
                      rebuilt when older than the data or of another shape)
  --rows-per-chunk N (chunk granularity when building the cache)
  --trace-out FILE   (write a chrome://tracing / Perfetto span trace
                      and print the per-phase worker-skew table)
  --ledger-out FILE  (write a JSON-lines run ledger: one record per
                      boosting round; inspect with `report --ledger`)
",
        harpgbdt::objective::registry_names()
    )
}

/// Runs the CLI with the given arguments (without the program name).
/// Returns the text to print on success.
///
/// # Errors
/// Returns a user-facing message on bad usage or failed I/O.
pub fn run(args: &[String]) -> Result<String, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(usage());
    };
    if let Some(command) = COMMANDS.iter().find(|c| c.name == cmd) {
        if rest.iter().any(|a| a == "--help" || a == "-h") {
            return Ok(command.help());
        }
    }
    match cmd.as_str() {
        "train" => commands::train(rest),
        "cache" => commands::cache(rest),
        "predict" => commands::predict(rest),
        "serve" => commands::serve(rest),
        "eval" => commands::eval(rest),
        "report" => commands::report(rest),
        "importance" => commands::importance(rest),
        "dump" => commands::dump(rest),
        "synth" => commands::synth(rest),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(format!("unknown command {other:?}\n\n{}", usage())),
    }
}

/// The top-level usage text.
pub fn usage() -> String {
    let mut s = String::from(
        "harpgbdt — gradient boosting optimized for parallel efficiency\n\n\
         usage: harpgbdt <command> [options]\n\ncommands:\n",
    );
    for c in COMMANDS {
        let _ = writeln!(s, "  {:<11} {}", c.name, c.usage.replace('\n', "\n              "));
    }
    let _ = write!(s, "\ntraining options:\n{}", training_options());
    s
}
