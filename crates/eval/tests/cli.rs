//! The `janitizer-eval` argument parser and exit codes, driven through
//! the built binary. Every case here is answered or rejected before the
//! guest world is built, or needs only a small one, so the whole file
//! runs in about a second.

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
}

/// Modeled cycles are read with `explain` and host time per layer with
/// `perfbench --trace 1`; the former profiling and trace entry points
/// are unknown arguments.
#[test]
fn retired_profile_entry_points_are_unknown() {
    rejects(&["profile", "fig7"], "unknown argument `profile`");
    rejects(&["fig14", "--profile"], "unknown argument `--profile`");
    rejects(
        &["--trace", "t.json", "fig14"],
        "unknown argument `--trace`",
    );
}

/// `--inject-faults` reaches fig10: with every module's rule bytes
/// corrupted, the JASan runs degrade and the summary counts them.
#[test]
fn fig10_honours_fault_injection() {
    let args = [
        "--scale",
        "0.05",
        "--inject-faults",
        "seed=7,rate=1",
        "fig10",
        "--juliet-limit",
        "4",
    ];
    let out = eval(&args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{args:?}: {stdout}");
    let loads: u64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("degraded: "))
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no `degraded:` line: {stdout}"));
    assert!(loads > 0, "no degraded load under rate=1: {stdout}");
}

/// The Figure 10 header counts the case pairs actually run.
#[test]
fn fig10_header_counts_its_case_pairs() {
    let args = ["--scale", "0.05", "fig10", "--juliet-limit", "4"];
    let out = eval(&args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{args:?}: {stdout}");
    assert!(
        stdout.contains("== Figure 10: Juliet CWE-122 (4 case pairs) =="),
        "{args:?}: {stdout}"
    );
}

/// Asserts that `args` exit with status 1 after naming `needle` on
/// stderr; returns stderr.
fn fails(args: &[&str], needle: &str) -> String {
    let out = eval(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(
        out.status.code(),
        Some(1),
        "{args:?} exited {:?}: {stderr}",
        out.status
    );
    assert!(
        stderr.contains(needle),
        "{args:?}: stderr lacks `{needle}`: {stderr}"
    );
    stderr
}

#[test]
fn unknown_module_or_case_exits_1_without_claiming_a_write_failure() {
    for (args, needle) in [
        (
            &["--scale", "0.05", "disasm", "nosuch"][..],
            "unknown module `nosuch`",
        ),
        (
            &["--scale", "0.05", "report", "99999"][..],
            "unknown Juliet case `99999`",
        ),
    ] {
        let stderr = fails(args, needle);
        assert!(
            stderr.contains("1 request(s) or check(s) failed"),
            "{args:?}: {stderr}"
        );
        assert!(
            !stderr.contains("could not be written"),
            "{args:?} claims a write failure: {stderr}"
        );
    }
}
