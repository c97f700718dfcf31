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
