//! Uniform command-line arguments for `bench_serve`.

/// Parsed experiment options.
#[derive(Debug, Clone)]
pub struct ExpArgs {
    /// Dataset scale multiplier over the laptop-scale defaults.
    pub scale: f64,
    /// Worker threads.
    pub threads: usize,
    /// Trees per run (`None` = the experiment's own default).
    pub trees: Option<usize>,
    /// RNG seed for dataset generation.
    pub seed: u64,
    /// Run at paper-like settings (larger data, 100 trees) instead of the
    /// quick defaults.
    pub full: bool,
    /// Smoke-test mode (CI): shrink the sweep to a seconds-long pass that
    /// exercises every code path without asserting on timings.
    pub test: bool,
    /// Write results as JSON to this path.
    pub out: Option<std::path::PathBuf>,
}

impl Default for ExpArgs {
    fn default() -> Self {
        Self {
            scale: 1.0,
            threads: harp_parallel::current_num_threads_hint(),
            trees: None,
            seed: 42,
            full: false,
            test: false,
            out: None,
        }
    }
}

impl ExpArgs {
    /// Parses `std::env::args`, exiting with usage on error.
    pub fn parse() -> Self {
        match Self::try_parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!(
                    "usage: <experiment> [--scale F] [--threads N] [--trees N] \
                     [--seed N] [--full] [--test] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument list.
    ///
    /// # Errors
    /// Returns a description of the first malformed argument.
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value =
                |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
            match flag.as_str() {
                "--scale" => {
                    out.scale = value("--scale")?
                        .parse()
                        .map_err(|_| "--scale expects a number".to_string())?;
                    if out.scale <= 0.0 {
                        return Err("--scale must be positive".into());
                    }
                }
                "--threads" => {
                    out.threads = value("--threads")?
                        .parse()
                        .map_err(|_| "--threads expects an integer".to_string())?;
                    if out.threads == 0 {
                        return Err("--threads must be positive".into());
                    }
                }
                "--trees" => {
                    out.trees = Some(
                        value("--trees")?
                            .parse()
                            .map_err(|_| "--trees expects an integer".to_string())?,
                    );
                }
                "--seed" => {
                    out.seed = value("--seed")?
                        .parse()
                        .map_err(|_| "--seed expects an integer".to_string())?;
                }
                "--full" => out.full = true,
                "--test" => out.test = true,
                "--out" => out.out = Some(value("--out")?.into()),
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(out)
    }

    /// Tree count: explicit `--trees`, else `full_default` under `--full`,
    /// else `quick_default`.
    pub fn n_trees(&self, quick_default: usize, full_default: usize) -> usize {
        self.trees.unwrap_or(if self.full { full_default } else { quick_default })
    }

    /// Dataset scale: the experiment's quick default multiplied by
    /// `--scale`, or the paper-ish scale under `--full`.
    pub fn data_scale(&self, quick_default: f64, full_default: f64) -> f64 {
        self.scale * if self.full { full_default } else { quick_default }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ExpArgs, String> {
        ExpArgs::try_parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_without_flags() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.scale, 1.0);
        assert_eq!(a.seed, 42);
        assert!(!a.full);
        assert!(!a.test);
        assert!(a.trees.is_none());
    }

    #[test]
    fn all_flags_parse() {
        let a = parse(&[
            "--scale",
            "0.5",
            "--threads",
            "8",
            "--trees",
            "50",
            "--seed",
            "7",
            "--full",
            "--test",
            "--out",
            "/tmp/x.json",
        ])
        .unwrap();
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.threads, 8);
        assert_eq!(a.trees, Some(50));
        assert_eq!(a.seed, 7);
        assert!(a.full);
        assert!(a.test);
        assert_eq!(a.out.as_deref(), Some(std::path::Path::new("/tmp/x.json")));
    }

    #[test]
    fn bad_flags_are_rejected() {
        assert!(parse(&["--scale"]).is_err());
        assert!(parse(&["--scale", "abc"]).is_err());
        assert!(parse(&["--scale", "-1"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--wat"]).is_err());
    }

    #[test]
    fn tree_and_scale_helpers() {
        let quick = parse(&[]).unwrap();
        assert_eq!(quick.n_trees(10, 100), 10);
        assert_eq!(quick.data_scale(0.25, 1.0), 0.25);
        let full = parse(&["--full"]).unwrap();
        assert_eq!(full.n_trees(10, 100), 100);
        assert_eq!(full.data_scale(0.25, 1.0), 1.0);
        let explicit = parse(&["--trees", "33", "--scale", "2"]).unwrap();
        assert_eq!(explicit.n_trees(10, 100), 33);
        assert_eq!(explicit.data_scale(0.25, 1.0), 0.5);
    }
}
