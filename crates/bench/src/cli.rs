//! The `repro` command-line reference.
//!
//! One static table of subcommands, flags, and exit codes, rendered by
//! `repro help` and walked by the documentation-sync test in
//! `tests/doc_sync.rs`, so the CLI surface and the operator guide
//! (`docs/CAMPAIGNS.md`) cannot drift apart: every subcommand and flag
//! listed here must appear verbatim in the guide.

/// One `repro` subcommand (or subcommand family).
pub struct CommandSpec {
    /// The subcommand token as typed (`campaign`, `repo init`, ...).
    pub name: &'static str,
    /// Usage line, without the leading `repro`.
    pub usage: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Flags the subcommand accepts.
    pub flags: &'static [FlagSpec],
}

/// One command-line flag.
pub struct FlagSpec {
    /// The flag token (`--budget`).
    pub flag: &'static str,
    /// Placeholder for the flag's value; `None` for boolean switches.
    pub value: Option<&'static str>,
    /// One-line summary.
    pub summary: &'static str,
}

/// One exit code of the campaign contract.
pub struct ExitSpec {
    /// The process exit code.
    pub code: i32,
    /// What the code means.
    pub meaning: &'static str,
}

const BUDGET: FlagSpec = FlagSpec {
    flag: "--budget",
    value: Some("N"),
    summary: "statement budget (the wall-clock analogue; default 60000)",
};

/// Every `repro` subcommand, in help order.
pub const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "<artifact>",
        usage: "<artifact> [--budget N]",
        summary: "regenerate a paper artifact: table1 table2 table3 figure1 findings \
                  rootcauses table4 figure2 table5 table6 bugs24h cases ablation all",
        flags: &[BUDGET],
    },
    CommandSpec {
        name: "campaign",
        usage: "campaign <dialect> [flags]",
        summary: "run one telemetry-on campaign against a dialect",
        flags: &[
            BUDGET,
            FlagSpec {
                flag: "--workers",
                value: Some("N"),
                summary: "worker threads (default: available parallelism; never changes results)",
            },
            FlagSpec {
                flag: "--journal",
                value: Some("PATH"),
                summary: "write the JSONL event journal for `repro trace`",
            },
            FlagSpec {
                flag: "--metrics-addr",
                value: Some("ADDR"),
                summary: "serve live Prometheus metrics over HTTP while the campaign runs",
            },
            FlagSpec {
                flag: "--progress",
                value: None,
                summary: "tick a TTY progress line from the live metrics",
            },
            FlagSpec {
                flag: "--findings",
                value: Some("DIR"),
                summary: "write one forensics bundle per unique finding",
            },
            FlagSpec {
                flag: "--oracles",
                value: None,
                summary: "arm the wrong-result oracles (multi-form, pivot, differential)",
            },
            FlagSpec {
                flag: "--schedule",
                value: None,
                summary: "enable the epoch-based feedback scheduler (identical at any worker count)",
            },
            FlagSpec {
                flag: "--epochs",
                value: Some("N"),
                summary: "number of scheduler epochs (default 8; implies --schedule)",
            },
            FlagSpec {
                flag: "--repo",
                value: Some("DIR"),
                summary: "consume a seed repository: same-dialect PoCs as seeds, literals into the pool",
            },
            FlagSpec {
                flag: "--spans",
                value: Some("DIR"),
                summary: "arm the flight recorder: Chrome trace JSON under DIR, stage latencies printed",
            },
            FlagSpec {
                flag: "--stall-ms",
                value: Some("N"),
                summary: "watchdog stall threshold in milliseconds (default 5000)",
            },
        ],
    },
    CommandSpec {
        name: "trace",
        usage: "trace <journal.jsonl> [--csv DIR] [--chrome OUT.json]",
        summary: "offline journal analysis: outcomes, yields, curves, epoch reallocations",
        flags: &[
            FlagSpec {
                flag: "--csv",
                value: Some("DIR"),
                summary: "also export the tables and curves as CSV files",
            },
            FlagSpec {
                flag: "--chrome",
                value: Some("OUT.json"),
                summary: "export the journal as a logical Chrome trace-event file for Perfetto",
            },
        ],
    },
    CommandSpec {
        name: "compare",
        usage: "compare <a.jsonl> <b.jsonl> [--csv DIR]",
        summary: "diff two campaign journals: new/lost bugs, yield and coverage deltas, \
                  discovery-latency shift",
        flags: &[FlagSpec {
            flag: "--csv",
            value: Some("DIR"),
            summary: "also export the diff as CSV files",
        }],
    },
    CommandSpec {
        name: "bundle",
        usage: "bundle <dialect> [--budget N] [--out DIR]",
        summary: "run a campaign and write one forensics bundle per unique finding",
        flags: &[
            BUDGET,
            FlagSpec {
                flag: "--out",
                value: Some("DIR"),
                summary: "bundle output root (default: findings)",
            },
        ],
    },
    CommandSpec {
        name: "replay",
        usage: "replay <bundle-dir | findings-root>",
        summary: "replay forensics bundles and check each PoC still fires its fault",
        flags: &[],
    },
    CommandSpec {
        name: "repo init",
        usage: "repo init <dir>",
        summary: "create an empty seed repository (idempotent)",
        flags: &[],
    },
    CommandSpec {
        name: "repo ingest",
        usage: "repo ingest <dir> <findings-root>",
        summary: "distill forensics bundles into repository entries (PoC + boundary literals)",
        flags: &[],
    },
    CommandSpec {
        name: "repo stats",
        usage: "repo stats <dir>",
        summary: "print entry and literal counts, per dialect",
        flags: &[],
    },
    CommandSpec {
        name: "repo export",
        usage: "repo export <dir> [--dialect NAME]",
        summary: "print the stored PoCs as a SQL regression script",
        flags: &[FlagSpec {
            flag: "--dialect",
            value: Some("NAME"),
            summary: "restrict the export to one dialect's entries",
        }],
    },
    CommandSpec {
        name: "help",
        usage: "help",
        summary: "print this reference",
        flags: &[],
    },
];

/// The campaign exit-code contract (see also EXPERIMENTS.md).
pub const EXIT_CODES: &[ExitSpec] = &[
    ExitSpec { code: 0, meaning: "success; the campaign confirmed no findings" },
    ExitSpec { code: 1, meaning: "`repro replay` only: a bundle failed to reproduce its fault" },
    ExitSpec { code: 2, meaning: "usage error (unknown command, dialect, path, or malformed input)" },
    ExitSpec { code: 3, meaning: "the campaign confirmed at least one crash finding" },
    ExitSpec { code: 4, meaning: "the campaign confirmed wrong-result (logic) findings only" },
    ExitSpec {
        code: 5,
        meaning: "`repro compare` only: campaign B lost unique bugs that campaign A found",
    },
];

/// Reads the value of `--flag VALUE` from `args`: `Ok(None)` when the flag
/// is absent, `Err` when it is present but its value is missing or does not
/// parse as a `T`. `repro` answers an `Err` with the usage and exit code 2,
/// the contract's "malformed input".
pub fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else { return Ok(None) };
    let value = args.get(i + 1).ok_or_else(|| format!("{flag} needs a value"))?;
    value.parse().map(Some).map_err(|_| format!("{flag}: malformed value {value:?}"))
}

/// Renders the `repro help` reference from the command table.
pub fn render_help() -> String {
    use std::fmt::Write as _;
    let mut out = String::from("repro — regenerates the paper's artifacts and runs campaigns\n\n");
    out.push_str("usage: repro <command> [flags]\n\ncommands:\n");
    for cmd in COMMANDS {
        let _ = writeln!(out, "  repro {}", cmd.usage);
        let _ = writeln!(out, "      {}", cmd.summary);
        for f in cmd.flags {
            let token = match f.value {
                Some(v) => format!("{} {v}", f.flag),
                None => f.flag.to_string(),
            };
            let _ = writeln!(out, "      {token:<22} {}", f.summary);
        }
    }
    out.push_str("\nexit codes:\n");
    for e in EXIT_CODES {
        let _ = writeln!(out, "  {}  {}", e.code, e.meaning);
    }
    out.push_str("\nsee docs/CAMPAIGNS.md for the operator guide.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_lists_every_command_and_flag() {
        let help = render_help();
        for cmd in COMMANDS {
            assert!(help.contains(cmd.usage), "usage missing from help: {}", cmd.usage);
            for f in cmd.flags {
                assert!(help.contains(f.flag), "flag missing from help: {}", f.flag);
            }
        }
        for e in EXIT_CODES {
            assert!(help.contains(e.meaning), "exit code {} missing", e.code);
        }
    }

    #[test]
    fn parse_flag_rejects_malformed_and_missing_values() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let budget = |s: &str| parse_flag::<usize>(&args(s), "--budget");
        assert_eq!(budget("campaign clickhouse --budget 3000"), Ok(Some(3000)));
        assert_eq!(budget("campaign clickhouse --workers 2"), Ok(None));
        let malformed = ["--budget 300x", "--budget -1", "--budget abc", "campaign x --budget"];
        for bad in malformed {
            assert!(budget(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn flags_are_unique_per_command() {
        for cmd in COMMANDS {
            let mut seen = std::collections::HashSet::new();
            for f in cmd.flags {
                assert!(seen.insert(f.flag), "duplicate flag {} on {}", f.flag, cmd.name);
            }
        }
    }
}
