//! End-to-end CLI tests driving the real binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_harpgbdt"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("harpgbdt-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn run_ok(args: &[&str]) -> String {
    let out = bin().args(args).output().expect("spawn harpgbdt");
    assert!(
        out.status.success(),
        "command {:?} failed:\nstdout: {}\nstderr: {}",
        args,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

fn run_err(args: &[&str]) -> String {
    let out = bin().args(args).output().expect("spawn harpgbdt");
    assert!(!out.status.success(), "command {args:?} unexpectedly succeeded");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_prints_usage() {
    let text = run_ok(&["help"]);
    assert!(text.contains("usage: harpgbdt"));
    assert!(text.contains("train"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let err = run_err(&["fly"]);
    assert!(err.contains("unknown command"));
}

#[test]
fn an_unknown_flag_exits_2_naming_it_and_the_command() {
    for (cmd, flag) in
        [("train", "--bogus"), ("predict", "--bogus"), ("train", "--colsample-bytree")]
    {
        let out = bin().args([cmd, flag, "1"]).output().expect("spawn harpgbdt");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd} {flag}: {err}");
        assert!(err.contains(&format!("unknown flag {flag} for {cmd}")), "{cmd} {flag}: {err}");
    }
}

#[test]
fn every_command_answers_help_with_its_usage() {
    for c in harpgbdt_cli::COMMANDS {
        for help in ["--help", "-h"] {
            let text = run_ok(&[c.name, help]);
            assert!(text.contains(&format!("usage: harpgbdt {}", c.name)), "{}: {text}", c.name);
        }
    }
}

#[test]
fn every_flag_the_usage_lists_for_a_command_is_accepted_by_it() {
    let usage = harpgbdt_cli::usage();
    let training = usage.split("training options:").nth(1).expect("a training options section");
    // The flags a usage text lists, outside its parenthesized remarks.
    let flags = |text: &str| -> Vec<String> {
        let mut depth = 0i32;
        let listed: String = text
            .chars()
            .filter(|&ch| {
                depth += i32::from(ch == '(') - i32::from(ch == ')');
                depth == 0 && ch != ')'
            })
            .collect();
        listed
            .split(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '-'))
            .filter(|w| w.starts_with("--") && w.len() > 2)
            .map(str::to_string)
            .collect()
    };
    for c in harpgbdt_cli::COMMANDS {
        let mut listed = flags(c.usage);
        if c.name == "train" {
            listed.extend(flags(training));
        }
        assert!(!listed.is_empty(), "{}", c.name);
        for flag in listed {
            // Any failure but an unknown flag (a missing file, a missing
            // required flag, a bad value) means the flag was accepted.
            let out = bin().args([c.name, &flag, "0"]).output().expect("spawn harpgbdt");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(!err.contains("unknown flag"), "{} {flag}: {err}", c.name);
        }
    }
}

#[test]
fn synth_train_eval_predict_roundtrip() {
    let dir = tmp_dir("roundtrip");
    let data = dir.join("higgs.csv");
    let model = dir.join("model.json");
    let preds = dir.join("preds.txt");

    let msg =
        run_ok(&["synth", "--kind", "higgs", "--rows", "1500", "--out", data.to_str().unwrap()]);
    assert!(msg.contains("1500 rows"));

    let msg = run_ok(&[
        "train",
        "--data",
        data.to_str().unwrap(),
        "--model",
        model.to_str().unwrap(),
        "--trees",
        "10",
        "--tree-size",
        "4",
        "--threads",
        "2",
    ]);
    assert!(msg.contains("trained 10 trees"), "got: {msg}");
    assert!(model.exists());

    let metrics =
        run_ok(&["eval", "--model", model.to_str().unwrap(), "--data", data.to_str().unwrap()]);
    assert!(metrics.contains("auc"));
    let auc: f64 = metrics
        .lines()
        .find(|l| l.starts_with("auc"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .expect("auc value");
    assert!(auc > 0.7, "train-set AUC too low: {auc}");

    let msg = run_ok(&[
        "predict",
        "--model",
        model.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
        "--out",
        preds.to_str().unwrap(),
    ]);
    assert!(msg.contains("1500 predictions"));
    let lines = std::fs::read_to_string(&preds).unwrap();
    assert_eq!(lines.lines().count(), 1500);
    // Probabilities in [0, 1].
    for l in lines.lines().take(20) {
        let p: f32 = l.parse().unwrap();
        assert!((0.0..=1.0).contains(&p));
    }

    let imp = run_ok(&["importance", "--model", model.to_str().unwrap(), "--top", "5"]);
    assert!(imp.contains("gain"));
    let dump = run_ok(&["dump", "--model", model.to_str().unwrap()]);
    assert!(dump.contains("tree 0"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_with_validation_and_early_stop() {
    let dir = tmp_dir("valid");
    let train = dir.join("train.csv");
    let valid = dir.join("valid.csv");
    let model = dir.join("model.json");
    run_ok(&["synth", "--kind", "airline", "--rows", "2000", "--out", train.to_str().unwrap()]);
    run_ok(&[
        "synth",
        "--kind",
        "airline",
        "--rows",
        "500",
        "--seed",
        "7",
        "--out",
        valid.to_str().unwrap(),
    ]);
    let msg = run_ok(&[
        "train",
        "--data",
        train.to_str().unwrap(),
        "--valid",
        valid.to_str().unwrap(),
        "--model",
        model.to_str().unwrap(),
        "--trees",
        "30",
        "--tree-size",
        "3",
        "--early-stop",
        "3",
        "--threads",
        "2",
    ]);
    assert!(msg.contains("validation: best"), "got: {msg}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn libsvm_format_and_class_predictions() {
    let dir = tmp_dir("libsvm");
    let data = dir.join("data.libsvm");
    let model = dir.join("m.json");
    run_ok(&["synth", "--kind", "yfcc", "--rows", "300", "--out", data.to_str().unwrap()]);
    run_ok(&[
        "train",
        "--data",
        data.to_str().unwrap(),
        "--model",
        model.to_str().unwrap(),
        "--trees",
        "5",
        "--tree-size",
        "3",
        "--threads",
        "1",
        "--mode",
        "mp",
    ]);
    let classes = run_ok(&[
        "predict",
        "--model",
        model.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
        "--class",
    ]);
    for l in classes.lines().take(10) {
        assert!(l == "0" || l == "1", "unexpected class {l:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn multiclass_training_via_cli() {
    let dir = tmp_dir("mc");
    let data = dir.join("mc.csv");
    // Hand-rolled 3-class CSV.
    let mut csv = String::from("label,f0\n");
    for i in 0..300 {
        let x = (i % 30) as f32 / 30.0;
        let y = ((i % 30) / 10) as u32;
        csv.push_str(&format!("{y},{x}\n"));
    }
    std::fs::write(&data, csv).unwrap();
    let model = dir.join("mc.json");
    run_ok(&[
        "train",
        "--data",
        data.to_str().unwrap(),
        "--model",
        model.to_str().unwrap(),
        "--loss",
        "softmax:3",
        "--trees",
        "10",
        "--tree-size",
        "2",
        "--gamma",
        "0",
        "--threads",
        "1",
    ]);
    let metrics =
        run_ok(&["eval", "--model", model.to_str().unwrap(), "--data", data.to_str().unwrap()]);
    assert!(metrics.contains("merror"));
    let merror: f64 = metrics
        .lines()
        .find(|l| l.starts_with("merror"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap();
    assert!(merror < 0.1, "multiclass CLI error too high: {merror}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn predict_rejects_feature_mismatch() {
    let dir = tmp_dir("mismatch");
    let narrow = dir.join("narrow.csv");
    let wide = dir.join("wide.csv");
    std::fs::write(&narrow, "1,0.5\n0,0.2\n").unwrap();
    std::fs::write(&wide, "1,0.5,0.1,0.9\n0,0.2,0.3,0.4\n").unwrap();
    let model = dir.join("m.json");
    run_ok(&[
        "train",
        "--data",
        wide.to_str().unwrap(),
        "--model",
        model.to_str().unwrap(),
        "--trees",
        "2",
        "--tree-size",
        "2",
        "--threads",
        "1",
    ]);
    // Fewer columns than the model expects would index out of bounds in
    // the traversal kernel: both scoring commands must refuse cleanly.
    for cmd in ["predict", "eval"] {
        let err =
            run_err(&[cmd, "--model", model.to_str().unwrap(), "--data", narrow.to_str().unwrap()]);
        assert!(err.contains("features"), "got: {err}");
    }
    // Extra columns are harmless (the model just never looks at them).
    run_ok(&["predict", "--model", model.to_str().unwrap(), "--data", wide.to_str().unwrap()]);
    // A hand-edited model whose root points at a node that does not exist
    // would send the walk's unchecked read out of bounds: loading it is an
    // error (exit code 2), not a crash.
    let hostile = dir.join("hostile.json");
    let leaf = |depth| {
        format!(
            r#"{{"parent":0,"left":4294967295,"right":4294967295,"depth":{depth},"split":null,"weight":0.25,"stats":{{"g":0.0,"h":1.0,"count":1}}}}"#
        )
    };
    std::fs::write(
        &hostile,
        format!(
            r#"{{"trees":[{{"nodes":[{{"parent":4294967295,"left":1000,"right":2,"depth":0,"split":{{"feature":0,"bin":0,"threshold":0.5,"default_left":false,"gain":1.0}},"weight":0.0,"stats":{{"g":0.0,"h":2.0,"count":2}}}},{},{}]}}],"base_scores":[0.0],"loss":"Logistic","n_features":3}}"#,
            leaf(1),
            leaf(2)
        ),
    )
    .unwrap();
    for cmd in ["predict", "eval"] {
        let args = [cmd, "--model", hostile.to_str().unwrap(), "--data", wide.to_str().unwrap()];
        let out = bin().args(args).output().expect("spawn harpgbdt");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {err}");
        assert!(err.contains("invalid model: tree 0: node 0 has child 1000"), "{cmd}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_deeply_nested_model_file_is_an_error_not_an_abort() {
    let dir = tmp_dir("deep-model");
    let (deep, data) = (dir.join("deep.json"), dir.join("data.csv"));
    std::fs::write(&deep, format!("{}{}", "[".repeat(100_000), "]".repeat(100_000))).unwrap();
    std::fs::write(&data, "label,a\n1,0.5\n").unwrap();
    let args = ["predict", "--model", deep.to_str().unwrap(), "--data", data.to_str().unwrap()];
    let out = bin().args(args).output().expect("spawn harpgbdt");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("recursion limit exceeded"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_input_errors_exit_cleanly() {
    let dir = tmp_dir("cache-input");
    let data = dir.join("train.csv");
    let empty = dir.join("empty.csv");
    std::fs::write(&data, "label,a,b\n1,0.5,0.1\n0,0.2,0.3\n1,0.7,0.2\n").unwrap();
    std::fs::write(&empty, "label,a,b\n").unwrap();
    let (data, empty) = (data.to_str().unwrap(), empty.to_str().unwrap());
    let out = dir.join("c.qsc");
    let model = dir.join("m.json");
    let (out, model) = (out.to_str().unwrap(), model.to_str().unwrap());
    let cases: [(&[&str], &str); 3] = [
        (&["cache", "--data", data, "--out", out, "--rows-per-chunk", "0"], "must be positive"),
        (
            &[
                "train",
                "--data",
                data,
                "--model",
                model,
                "--external-memory",
                "--cache",
                out,
                "--rows-per-chunk",
                "0",
            ],
            "must be positive",
        ),
        (&["cache", "--data", empty, "--out", out], "empty matrix"),
    ];
    for (args, expected) in cases {
        let run = bin().args(args).output().expect("spawn harpgbdt");
        let err = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(expected), "{args:?}: {err}");
    }
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert_eq!(left.len(), 2, "only the two inputs may remain: {left:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn squared_loss_keeps_negative_targets() {
    let dir = tmp_dir("negative-targets");
    let data = dir.join("train.csv");
    // Targets x - 8 over x in 0..10: 80 % of them negative, mean -3.5.
    let mut text = String::from("label,x\n");
    for i in 0..200 {
        let x = i % 10;
        text.push_str(&format!("{},{x}\n", x - 8));
    }
    std::fs::write(&data, text).unwrap();
    let model = dir.join("m.json");
    run_ok(&[
        "train",
        "--data",
        data.to_str().unwrap(),
        "--model",
        model.to_str().unwrap(),
        "--loss",
        "squared",
        "--trees",
        "2",
        "--threads",
        "1",
    ]);
    let json = std::fs::read_to_string(&model).unwrap();
    let scores = json.split("\"base_scores\":[").nth(1).expect("base_scores in the model");
    let base: f64 = scores[..scores.find(']').unwrap()].parse().unwrap();
    assert!((base + 3.5).abs() < 1e-6, "base score {base}: negative targets were clamped");
    std::fs::remove_dir_all(&dir).ok();
}

/// `eval`'s stdout on the cases of `testdata/eval/cases.txt`, byte for byte
/// as `testdata/eval/record.sh` recorded it (models and data committed
/// beside it): one validation path must not move a printed digit.
#[test]
fn eval_output_matches_the_recorded_transcript() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("testdata/eval");
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).expect("testdata file");
    let mut transcript = String::new();
    for case in read("cases.txt").lines() {
        let args: Vec<&str> = std::iter::once("eval").chain(case.split_whitespace()).collect();
        let out = bin().args(&args).current_dir(&dir).output().expect("spawn harpgbdt");
        assert!(out.status.success(), "{case}: {}", String::from_utf8_lossy(&out.stderr));
        transcript.push_str(&format!("$ harpgbdt eval {case}\n"));
        transcript.push_str(&String::from_utf8(out.stdout).expect("utf8 stdout"));
    }
    assert_eq!(transcript, read("golden.txt"));
}

/// A LIBSVM file takes its width from its highest index, so it may be
/// narrower than the model: its absent columns are missing, and `predict`
/// and `eval` score it exactly as the same rows at full width. A narrower
/// CSV is still an error.
#[test]
fn a_narrower_libsvm_file_scores_as_the_same_rows_at_full_width() {
    let dir = tmp_dir("narrow-libsvm");
    let (train, model) = (dir.join("train.csv"), dir.join("m.json"));
    let mut text = String::new();
    for i in 0..200 {
        let (a, b, c, d) = (i % 7, (i * 3) % 11, (i * 5) % 13, (i * 7) % 17);
        let label = u8::from(c + 2 * d > 20);
        text.push_str(&format!("{label},{a},{b},{c},{d}\n"));
    }
    std::fs::write(&train, text).unwrap();
    let model = model.to_str().unwrap();
    let train = train.to_str().unwrap();
    run_ok(&["train", "--data", train, "--model", model, "--trees", "20", "--threads", "1"]);
    let json = std::fs::read_to_string(model).unwrap();
    assert!(json.contains(r#""feature":3"#), "no split reads the column the narrow file lacks");

    // Two columns of four: the same rows, once at width 2 and once with an
    // explicit missing fourth column (LIBSVM `nan` is an absent entry).
    let rows = ["1 1:3 2:4", "0 1:1 2:9", "1 1:6", "0 2:2"];
    let (narrow, full) = (dir.join("narrow.libsvm"), dir.join("full.libsvm"));
    std::fs::write(&narrow, rows.join("\n") + "\n").unwrap();
    std::fs::write(&full, rows.map(|r| format!("{r} 4:nan")).join("\n") + "\n").unwrap();
    for args in [&["predict"][..], &["predict", "--raw"], &["eval"], &["eval", "--metric", "rmse"]]
    {
        let score = |data: &PathBuf| {
            let tail = ["--model", model, "--data", data.to_str().unwrap(), "--threads", "2"];
            run_ok(&[args, &tail[..]].concat())
        };
        assert_eq!(score(&narrow), score(&full), "{args:?}");
    }

    let csv = dir.join("narrow.csv");
    std::fs::write(&csv, "1,3,4\n0,1,9\n").unwrap();
    for cmd in ["predict", "eval"] {
        let err = run_err(&[cmd, "--model", model, "--data", csv.to_str().unwrap()]);
        assert!(err.contains("data has 2 features but the model expects 4"), "{cmd}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A metric that does not fit the model, or a parameter outside its range,
/// is a typed error (exit code 2) naming the metric, never a panic.
#[test]
fn eval_rejects_a_metric_that_does_not_fit_the_model() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("testdata/eval");
    let cases = [
        ("softmax.json", "multiclass.csv", "auc", "metric auc does not fit"),
        ("logistic.json", "binary.csv", "ndcg:3", "metric ndcg@3 does not fit"),
        ("logistic.json", "binary.csv", "pinball:1.5", "metric pinball@1.5 does not fit"),
        ("lambdarank.json", "multiclass.csv", "auto", "metric ndcg@5 does not fit"),
    ];
    for (model, data, metric, want) in cases {
        let args = ["eval", "--model", model, "--data", data, "--metric", metric];
        let out = bin().args(args).current_dir(&dir).output().expect("spawn harpgbdt");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{model} {metric}: {err}");
        assert!(err.contains(want), "{model} {metric}: {err}");
    }
}

/// A softmax model scored on a label that is not one of its class ids is a
/// typed error (exit code 2) naming the metric and the row, never a panic.
#[test]
fn eval_rejects_a_label_that_is_not_a_class_id_of_the_model() {
    let testdata = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("testdata/eval");
    let model = testdata.join("softmax.json");
    let dir = tmp_dir("eval-class-id");
    let data = dir.join("labels.csv");
    std::fs::write(&data, "label,a,b,c,d\n5,0.5,0.5,0.5,0.5\n1,0.1,0.2,0.3,0.4\n").unwrap();
    for metric in ["auto", "logloss", "error"] {
        let args = ["eval", "--model", model.to_str().unwrap(), "--data", data.to_str().unwrap()];
        let out = bin().args(args).args(["--metric", metric]).output().expect("spawn harpgbdt");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{metric}: {err}");
        assert!(
            err.contains("does not fit: softmax labels must be class ids 0..3; row 0 has 5"),
            "{metric}: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
