//! Flag parsing helpers (hand-rolled to keep the dependency set minimal).

use std::collections::HashMap;

/// Parsed `--flag value` pairs plus boolean switches.
#[derive(Debug, Default)]
pub struct Opts {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

/// Known boolean switches (flags without values).
const SWITCHES: &[&str] = &["--raw", "--class", "--auto-blocks", "--external-memory"];

impl Opts {
    /// Parses the argument list of command `cmd`.
    ///
    /// # Errors
    /// Returns a message for a flag `cmd` does not accept, a flag missing
    /// its value, a duplicate, or a non-flag token.
    ///
    /// # Panics
    /// Panics if `cmd` names no command.
    pub fn parse(cmd: &str, args: &[String]) -> Result<Self, String> {
        let command = crate::COMMANDS.iter().find(|c| c.name == cmd);
        let accepted = command.expect("a known command").flags;
        let mut out = Opts::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !flag.starts_with("--") {
                return Err(format!("unexpected argument {flag:?} (flags start with --)"));
            }
            if !accepted.split_whitespace().any(|f| f == flag) {
                return Err(format!("unknown flag {flag} for {cmd} (see `harpgbdt {cmd} --help`)"));
            }
            if SWITCHES.contains(&flag.as_str()) {
                out.switches.push(flag.clone());
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} requires a value"))?.clone();
            if out.values.insert(flag.clone(), value).is_some() {
                return Err(format!("{flag} given twice"));
            }
        }
        Ok(out)
    }

    /// Whether a boolean switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Raw string value of a flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Required string value.
    ///
    /// # Errors
    /// Returns a message when the flag is absent.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing required flag {name}"))
    }

    /// Parsed value of a flag, falling back to `default`.
    ///
    /// # Errors
    /// Returns a message when the value does not parse.
    pub fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.parse_opt(name)?.unwrap_or(default))
    }

    /// Parsed optional value.
    ///
    /// # Errors
    /// Returns a message when the value does not parse.
    pub fn parse_opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| format!("{name}: cannot parse {v:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_pairs_and_switches() {
        let o = Opts::parse("predict", &args(&["--data", "x.csv", "--raw", "--threads", "10"]))
            .unwrap();
        assert_eq!(o.get("--data"), Some("x.csv"));
        assert!(o.switch("--raw"));
        assert!(!o.switch("--class"));
        assert_eq!(o.parse_or("--threads", 0usize).unwrap(), 10);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Opts::parse("train", &args(&["--data"])).is_err());
    }

    #[test]
    fn duplicate_flag_is_an_error() {
        assert!(Opts::parse("train", &args(&["--k", "1", "--k", "2"])).is_err());
    }

    #[test]
    fn non_flag_token_is_an_error() {
        assert!(Opts::parse("train", &args(&["train.csv"])).is_err());
    }

    #[test]
    fn a_flag_the_command_does_not_accept_is_an_error_naming_both() {
        let err = Opts::parse("train", &args(&["--bogus", "3"])).unwrap_err();
        assert!(err.contains("unknown flag --bogus for train"), "{err}");
        let err = Opts::parse("train", &args(&["--colsample-bytree", "0"])).unwrap_err();
        assert!(err.contains("--colsample-bytree"), "{err}");
        // A switch of another command is no flag of this one.
        let err = Opts::parse("train", &args(&["--raw"])).unwrap_err();
        assert!(err.contains("unknown flag --raw for train"), "{err}");
    }

    #[test]
    fn required_and_defaults() {
        let o = Opts::parse("train", &args(&["--gamma", "1"])).unwrap();
        assert!(o.required("--gamma").is_ok());
        assert!(o.required("--lambda").is_err());
        assert_eq!(o.parse_or("--trees", 7u32).unwrap(), 7);
        assert_eq!(o.parse_opt::<f32>("--gamma").unwrap(), Some(1.0));
        assert!(o.parse_opt::<f32>("--subsample").unwrap().is_none());
    }

    #[test]
    fn bad_parse_reports_flag() {
        let o = Opts::parse("train", &args(&["--trees", "abc"])).unwrap();
        let err = o.parse_or("--trees", 0usize).unwrap_err();
        assert!(err.contains("--trees"));
    }
}
