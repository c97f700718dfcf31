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

/// Runs the CLI with the given arguments (without the program name).
/// Returns the text to print on success.
///
/// # Errors
/// Returns a user-facing message on bad usage or failed I/O.
pub fn run(args: &[String]) -> Result<String, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(usage());
    };
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
    let mut s = String::new();
    let _ = writeln!(s, "harpgbdt — gradient boosting optimized for parallel efficiency");
    let _ = writeln!(s);
    let _ = writeln!(s, "usage: harpgbdt <command> [options]");
    let _ = writeln!(s);
    let _ = writeln!(s, "commands:");
    let _ = writeln!(s, "  train       --data FILE --model FILE [training options]");
    let _ = writeln!(s, "  cache       --data FILE [--out FILE] [--rows-per-chunk N]   (build the");
    let _ = writeln!(s, "              external-memory chunk cache ahead of training)");
    let _ = writeln!(
        s,
        "  predict     --model FILE --data FILE [--out FILE] [--raw|--class] [--threads N]"
    );
    let _ =
        writeln!(s, "  serve       --model FILE [--addr HOST:PORT] [--threads N] [--window-us N]");
    let _ =
        writeln!(s, "              [--max-batch-rows N] [--queue-depth N] [--max-rows-per-req N]");
    let _ = writeln!(
        s,
        "              [--watch-ms N] [--ledger-out FILE] [--ledger-every N] [--trace-out FILE]"
    );
    let _ = writeln!(s, "              [--metrics-addr HOST:PORT]  (plain-HTTP /metrics endpoint)");
    let _ = writeln!(s, "  eval        --model FILE --data FILE [--metric NAME] [--groups FILE]");
    let _ = writeln!(
        s,
        "              (metrics: auto|auc|logloss|rmse|error|pinball[:A]|tweedie[:P]|huber[:D]|ndcg[:K])"
    );
    let _ = writeln!(s, "  report      --ledger FILE | --diff A B | --bench-diff A B");
    let _ = writeln!(
        s,
        "              [--tolerance F] [--warn F] [--time-tolerance F] [--time-floor SECS]"
    );
    let _ = writeln!(
        s,
        "              [--ignore PREFIX[,PREFIX...]]  (drop metrics by name prefix, e.g.\n               counter/chunk_ when diffing an in-core run against a chunked one)"
    );
    let _ = writeln!(
        s,
        "              --slo SPEC (--ledger FILE | --snapshot FILE)   e.g. predict:p99<5ms"
    );
    let _ = writeln!(s, "  importance  --model FILE [--top N]");
    let _ = writeln!(s, "  dump        --model FILE");
    let _ = writeln!(s, "  synth       --kind KIND --out FILE [--rows N] [--seed N]");
    let _ = writeln!(s);
    let _ = writeln!(s, "training options:");
    let _ = writeln!(s, "  --trees N --tree-size D --learning-rate F --gamma F --lambda F");
    let _ =
        writeln!(s, "  --min-child-weight F --max-delta-step F (0 disables; ~0.7 tames tweedie)");
    let _ = writeln!(s, "  --growth leafwise|depthwise --k N");
    let _ = writeln!(s, "  --mode dp|mp|sync|async --threads N");
    let _ = writeln!(s, "  --loss {}", harpgbdt::objective::registry_names());
    let _ = writeln!(s, "         (see `harpgbdt train --help` for the objective registry)");
    let _ = writeln!(s, "  --subsample F --colsample F --seed N");
    let _ = writeln!(s, "  --blocks R,N,F,B   (explicit block extents, 0 = unlimited)");
    let _ = writeln!(s, "  --auto-blocks      (cost-model block auto-tuner)");
    let _ = writeln!(s, "  --groups FILE      (query-group sizes for ranking data)");
    let _ = writeln!(s, "  --valid FILE --valid-groups FILE --early-stop ROUNDS");
    let _ = writeln!(s, "  --external-memory  (train from a memory-mapped chunk cache;");
    let _ = writeln!(s, "                      see `harpgbdt train --help` for the knobs)");
    let _ = writeln!(s, "  --mem-budget BYTES --cache FILE --rows-per-chunk N");
    let _ = writeln!(s, "  --trace-out FILE   (write a chrome://tracing / Perfetto span trace");
    let _ = writeln!(s, "                      and print the per-phase worker-skew table)");
    let _ = writeln!(s, "  --ledger-out FILE  (write a JSON-lines run ledger: one record per");
    let _ = writeln!(s, "                      boosting round; inspect with `report --ledger`)");
    s
}
