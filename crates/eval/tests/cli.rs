//! The `janitizer-eval` argument parser, driven through the built binary.
//! Every case here is answered or rejected before the guest world is
//! built, so the whole file runs in well under a second.

use std::process::{Command, Output};

fn eval(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_janitizer-eval"))
        .args(args)
        .output()
        .expect("janitizer-eval starts")
}

#[test]
fn help_names_every_subcommand() {
    let out = eval(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8(out.stdout).expect("utf-8 help");
    for sub in [
        "all",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "rules",
        "soundness",
        "disasm",
        "report",
        "serve",
        "gauntlet",
        "explain",
        "explain diff",
        "explain trend",
    ] {
        assert!(help.contains(sub), "--help does not name `{sub}`:\n{help}");
    }
}

/// Asserts that `args` exit with status 2 and a message naming `needle`.
fn rejects(args: &[&str], needle: &str) {
    let out = eval(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} exited {:?}: {stderr}",
        out.status
    );
    assert!(
        stderr.contains(needle),
        "{args:?}: stderr lacks `{needle}`: {stderr}"
    );
}

#[test]
fn bad_arguments_exit_2_with_a_message() {
    rejects(&["fig99"], "unknown argument `fig99`");
    rejects(&["--bogus-flag"], "unknown argument `--bogus-flag`");
    rejects(&["--threads", "abc"], "--threads needs a positive integer");
    rejects(&["--trace"], "--trace needs a file path");
}

/// Modeled cycles are read with `explain`; the former profiling entry
/// points are unknown arguments.
#[test]
fn retired_profile_entry_points_are_unknown() {
    rejects(&["profile", "fig7"], "unknown argument `profile`");
    rejects(&["fig14", "--profile"], "unknown argument `--profile`");
}
