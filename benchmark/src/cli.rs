//! Command-line arguments shared by `bench` and `bench-traced`.

use std::path::PathBuf;

/// Parsed arguments. `--trace` is accepted so one wrapper can pass the
/// driver's arguments through unchanged; each binary checks it names itself.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload to run.
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Length of the measuring phase, seconds.
    pub seconds: f64,
    /// `--trace`, when passed: 1 is true.
    pub trace: Option<bool>,
    /// Where `bench-traced` writes `<workload>.trace.json`.
    pub out_dir: PathBuf,
}

impl Args {
    /// Default seed.
    pub const DEFAULT_SEED: u64 = 1;
    /// Default length of the measuring phase, seconds.
    pub const DEFAULT_SECONDS: f64 = 20.0;

    /// Parses `args` (without the program name).
    ///
    /// # Errors
    ///
    /// A usage message for an unknown flag, a missing or malformed value, or
    /// a missing `--workload`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = Self::DEFAULT_SEED;
        let mut seconds = Self::DEFAULT_SECONDS;
        let mut trace = None;
        let mut out_dir = PathBuf::from("benchmark/out");
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => {
                    seed = value()?
                        .parse()
                        .map_err(|_| "--seed takes a whole number".to_owned())?;
                }
                "--seconds" => {
                    seconds = value()?
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                        .ok_or("--seconds takes a number in (0, 600]".to_owned())?;
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".to_owned()),
                    });
                }
                "--out" => out_dir = PathBuf::from(value()?),
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload <name> is required")?,
            seed,
            seconds,
            trace,
            out_dir,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn driver_arguments_parse() {
        let args = parse(&[
            "--workload",
            "sim_sweep",
            "--seed",
            "42",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload, "sim_sweep");
        assert_eq!(args.seed, 42);
        assert_eq!(args.seconds, 20.0);
        assert_eq!(args.trace, Some(true));
    }

    #[test]
    fn defaults_and_errors() {
        let args = parse(&["--workload", "compile_sweep"]).unwrap();
        assert_eq!(args.seed, Args::DEFAULT_SEED);
        assert_eq!(args.trace, None);
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload"]).is_err());
        assert!(parse(&["--workload", "x", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "x", "--seed", "-1"]).is_err());
        assert!(parse(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }
}
