//! Command-line arguments: `--key value` pairs and bare `--switches`,
//! checked against what the sub-command accepts.

use std::str::FromStr;

pub struct Args {
    values: Vec<(String, String)>,
    switches: Vec<String>,
    /// Arguments that are not options, in order.
    pub positional: Vec<String>,
}

impl Args {
    /// Parses `args`; `keys` take a value, `switches` do not. Anything
    /// else that starts with `--` is refused.
    pub fn parse(args: &[String], keys: &[&str], switches: &[&str]) -> Result<Args, String> {
        let mut parsed = Args { values: Vec::new(), switches: Vec::new(), positional: Vec::new() };
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            match arg.strip_prefix("--") {
                Some(key) if keys.contains(&key) => {
                    let value = rest.next().ok_or(format!("--{key} needs a value"))?;
                    parsed.values.push((key.to_string(), value.clone()));
                }
                Some(key) if switches.contains(&key) => parsed.switches.push(key.to_string()),
                Some(key) => return Err(format!("unknown option --{key}")),
                None => parsed.positional.push(arg.clone()),
            }
        }
        Ok(parsed)
    }

    pub fn switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    pub fn text(&self, key: &str) -> Option<&str> {
        self.values.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// The value of `--key`, or `default` when it is not given.
    pub fn get<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.text(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot read `{v}`")),
        }
    }

    /// The value of `--key`, which must be given.
    pub fn require<T: FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self.text(key).ok_or(format!("--{key} is required"))?;
        v.parse().map_err(|_| format!("--{key}: cannot read `{v}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn reads_values_switches_and_positionals() {
        let args = Args::parse(
            &strings(&["a.json", "--seed", "29", "--smoke", "b.json"]),
            &["seed", "seconds"],
            &["smoke"],
        )
        .unwrap();
        assert_eq!(args.require::<u64>("seed"), Ok(29));
        assert_eq!(args.get("seconds", 10.0), Ok(10.0));
        assert!(args.switch("smoke"));
        assert_eq!(args.positional, strings(&["a.json", "b.json"]));
    }

    #[test]
    fn refuses_what_it_does_not_know_or_cannot_read() {
        assert!(Args::parse(&strings(&["--sed", "1"]), &["seed"], &[]).is_err());
        assert!(Args::parse(&strings(&["--seed"]), &["seed"], &[]).is_err());
        let args = Args::parse(&strings(&["--seed", "x"]), &["seed"], &[]).unwrap();
        assert!(args.require::<u64>("seed").is_err());
        assert!(args.require::<u64>("seconds").is_err());
    }
}
