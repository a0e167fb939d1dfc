//! The one command-line parser of the sketch-bench binaries.
//!
//! Each binary declares what it takes as a [`Cli`] — its subcommands and whether it
//! writes `--out PATH` or `--trace PATH` — and every binary accepts `--smoke`.  The
//! parser refuses anything else: an unknown flag, a flag this binary does not take, a
//! value-taking flag with no value (or followed by another flag), an unknown
//! subcommand.  [`Cli::from_env`] prints the reason and the usage line and exits 2, so
//! a mistyped command line never overwrites a checked-in file with a run it did not
//! ask for.

/// What one binary accepts on its command line.
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    /// The binary's name, for the usage line.
    pub bin: &'static str,
    /// Subcommands the binary takes as one positional argument (empty: none).
    pub subcommands: &'static [&'static str],
    /// Whether the binary takes `--out PATH`.
    pub out: bool,
    /// Whether the binary takes `--trace PATH`.
    pub trace: bool,
}

/// `paper [SUBCOMMAND] [--smoke] [--trace PATH]`: the paper's tables and figures.
pub const PAPER: Cli = Cli {
    bin: "paper",
    subcommands: &[
        "table1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "sec7",
        "ablations",
    ],
    out: false,
    trace: true,
};

/// `fig_kernels [--smoke] [--out PATH] [--trace PATH]`.
pub const FIG_KERNELS: Cli = Cli::writes_json("fig_kernels");

/// `fig_scaling [--smoke] [--out PATH] [--trace PATH]`.
pub const FIG_SCALING: Cli = Cli::writes_json("fig_scaling");

/// `fig_serve [--smoke] [--out PATH] [--trace PATH]`.
pub const FIG_SERVE: Cli = Cli::writes_json("fig_serve");

/// `fig_faults [--smoke] [--out PATH] [--trace PATH]`.
pub const FIG_FAULTS: Cli = Cli::writes_json("fig_faults");

/// `fig_lowrank [--smoke]`.
pub const FIG_LOWRANK: Cli = Cli {
    bin: "fig_lowrank",
    subcommands: &[],
    out: false,
    trace: false,
};

/// A parsed command line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    /// The subcommand, if one was given.
    pub subcommand: Option<&'static str>,
    /// `--smoke`: the CI-sized run of the same gates.
    pub smoke: bool,
    /// `--out PATH`.
    pub out: Option<String>,
    /// `--trace PATH`.
    pub trace: Option<String>,
}

impl Cli {
    /// A binary that writes a JSON figure and a trace: `--smoke`, `--out`, `--trace`.
    const fn writes_json(bin: &'static str) -> Self {
        Self {
            bin,
            subcommands: &[],
            out: true,
            trace: true,
        }
    }

    /// The usage line, e.g. `usage: fig_scaling [--smoke] [--out PATH] [--trace PATH]`.
    pub fn usage(&self) -> String {
        let mut line = format!("usage: {}", self.bin);
        if !self.subcommands.is_empty() {
            line.push_str(&format!(" [{}]", self.subcommands.join("|")));
        }
        line.push_str(" [--smoke]");
        if self.out {
            line.push_str(" [--out PATH]");
        }
        if self.trace {
            line.push_str(" [--trace PATH]");
        }
        line
    }

    /// Parse `args` (without the program name).
    pub fn parse(&self, args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = |flag: &str| match args.next() {
                Some(v) if !v.starts_with("--") => Ok(v),
                _ => Err(format!("{flag} needs a value")),
            };
            match arg.as_str() {
                "--smoke" => parsed.smoke = true,
                "--out" if self.out => parsed.out = Some(value("--out")?),
                "--trace" if self.trace => parsed.trace = Some(value("--trace")?),
                flag if flag.starts_with("--") => {
                    return Err(format!("{} does not take {flag}", self.bin));
                }
                name => {
                    let known = self.subcommands.iter().find(|s| **s == name);
                    match (known, parsed.subcommand) {
                        (Some(sub), None) => parsed.subcommand = Some(sub),
                        (Some(_), Some(first)) => {
                            return Err(format!(
                                "one subcommand at a time, got {first} and {name}"
                            ));
                        }
                        (None, _) => return Err(format!("unknown subcommand {name}")),
                    }
                }
            }
        }
        Ok(parsed)
    }

    /// Parse the process's arguments; on a usage error print it and the usage line to
    /// stderr and exit 2.
    pub fn from_env(&self) -> Args {
        self.parse(std::env::args().skip(1)).unwrap_or_else(|msg| {
            eprintln!("{}: {msg}", self.bin);
            eprintln!("{}", self.usage());
            std::process::exit(2)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(cli: &Cli, line: &str) -> Result<Args, String> {
        cli.parse(line.split_whitespace().map(String::from))
    }

    /// Assert that each `(bin, command line)` is refused with `reason`.
    fn assert_rejected(cases: &[(Cli, &str, &str)]) {
        for (cli, line, reason) in cases {
            assert_eq!(
                parse(cli, line),
                Err(reason.to_string()),
                "{} {line}",
                cli.bin
            );
        }
    }

    #[test]
    fn each_bin_accepts_its_documented_command_line() {
        for cli in [FIG_KERNELS, FIG_SCALING, FIG_SERVE, FIG_FAULTS] {
            let args = parse(&cli, "--smoke --out o.json --trace t.json").unwrap();
            assert_eq!(
                (args.smoke, args.out, args.trace, args.subcommand),
                (true, Some("o.json".into()), Some("t.json".into()), None),
                "{}",
                cli.bin
            );
        }
        let args = parse(&PAPER, "sec7 --smoke --trace t.json").unwrap();
        assert_eq!(
            (args.subcommand, args.smoke, args.out, args.trace),
            (Some("sec7"), true, None, Some("t.json".into()))
        );
        assert_eq!(parse(&PAPER, ""), Ok(Args::default()));
        assert!(parse(&FIG_LOWRANK, "--smoke").unwrap().smoke);
    }

    #[test]
    fn a_value_flag_without_its_value_is_rejected() {
        assert_rejected(&[
            (FIG_FAULTS, "--smoke --out", "--out needs a value"),
            (FIG_SCALING, "--out --smoke", "--out needs a value"),
            (FIG_SERVE, "--trace", "--trace needs a value"),
            (FIG_KERNELS, "--trace --out x", "--trace needs a value"),
            (PAPER, "fig5 --trace", "--trace needs a value"),
        ]);
    }

    #[test]
    fn an_unknown_flag_or_one_the_bin_does_not_take_is_rejected() {
        assert_rejected(&[
            (
                FIG_SCALING,
                "--smoke --fast",
                "fig_scaling does not take --fast",
            ),
            (PAPER, "--out x.json", "paper does not take --out"),
            (
                FIG_LOWRANK,
                "--trace t.json",
                "fig_lowrank does not take --trace",
            ),
        ]);
    }

    #[test]
    fn an_unknown_or_second_subcommand_is_rejected() {
        assert_rejected(&[
            (PAPER, "fig9", "unknown subcommand fig9"),
            (
                PAPER,
                "fig2 fig3",
                "one subcommand at a time, got fig2 and fig3",
            ),
            (FIG_KERNELS, "gemm", "unknown subcommand gemm"),
        ]);
    }

    #[test]
    fn usage_lines_list_exactly_what_each_bin_takes() {
        assert_eq!(
            FIG_SERVE.usage(),
            "usage: fig_serve [--smoke] [--out PATH] [--trace PATH]"
        );
        assert_eq!(FIG_LOWRANK.usage(), "usage: fig_lowrank [--smoke]");
        assert_eq!(
            PAPER.usage(),
            "usage: paper [table1|fig2|fig3|fig4|fig5|fig6|fig7|fig8|sec7|ablations] \
             [--smoke] [--trace PATH]"
        );
    }
}
