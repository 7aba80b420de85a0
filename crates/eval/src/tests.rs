//! Unit tests for the figure data structures and summary math.

use crate::*;
use std::io;

fn fig(rows: Vec<(&str, Vec<Option<f64>>)>) -> FigResult {
    FigResult {
        title: "test".into(),
        columns: vec!["a".into(), "b".into()],
        rows: rows.into_iter().map(|(n, v)| (n.to_string(), v)).collect(),
        higher_is_better: false,
        use_mean: false,
    }
}

#[test]
fn geomean_math() {
    let f = fig(vec![
        ("w1", vec![Some(2.0), Some(4.0)]),
        ("w2", vec![Some(8.0), Some(4.0)]),
    ]);
    let g = f.geomean();
    assert!((g[0].unwrap() - 4.0).abs() < 1e-9);
    assert!((g[1].unwrap() - 4.0).abs() < 1e-9);
}

#[test]
fn geomean_skips_missing_cells() {
    let f = fig(vec![
        ("w1", vec![Some(2.0), None]),
        ("w2", vec![Some(8.0), Some(3.0)]),
    ]);
    let g = f.geomean();
    assert!((g[0].unwrap() - 4.0).abs() < 1e-9);
    assert!((g[1].unwrap() - 3.0).abs() < 1e-9);
}

#[test]
fn geomean_x_uses_complete_rows_only() {
    let f = fig(vec![
        ("w1", vec![Some(2.0), None]),
        ("w2", vec![Some(8.0), Some(3.0)]),
    ]);
    let g = f.geomean_x();
    assert!((g[0].unwrap() - 8.0).abs() < 1e-9, "only w2 is complete");
    assert!((g[1].unwrap() - 3.0).abs() < 1e-9);
}

#[test]
fn mean_math() {
    let f = fig(vec![
        ("w1", vec![Some(1.0), Some(10.0)]),
        ("w2", vec![Some(3.0), None]),
    ]);
    let m = f.mean();
    assert!((m[0].unwrap() - 2.0).abs() < 1e-9);
    assert!((m[1].unwrap() - 10.0).abs() < 1e-9);
}

#[test]
fn csv_and_json_render() {
    let f = fig(vec![("w1", vec![Some(1.5), None])]);
    let csv = f.to_csv();
    assert!(csv.starts_with("benchmark,a,b\n"));
    assert!(csv.contains("w1,1.5000,\n"));
    let json = f.to_json();
    assert!(json.contains("\"title\""));
    assert!(json.contains("1.5"));
}

#[test]
fn render_marks_missing_with_x() {
    let f = fig(vec![("w1", vec![Some(1.0), None])]);
    let text = f.render();
    assert!(text.contains('x'), "{text}");
    assert!(text.contains("geomean"));
}

#[test]
fn mean_mode_renders_mean_row() {
    let mut f = fig(vec![("w1", vec![Some(1.0), Some(2.0)])]);
    f.use_mean = true;
    let text = f.render();
    assert!(text.contains("mean"));
    assert!(!text.contains("geomean"));
}

#[test]
fn atomic_write_survives_midwrite_failure() {
    let dir = std::env::temp_dir().join("janitizer-eval-atomic-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fig.json");
    std::fs::write(&path, b"old complete contents").unwrap();

    // The injected writer gets one torn partial write in before failing,
    // modelling a disk filling up mid-stream.
    let err = write_atomic_with(&path, b"replacement", |p, b| {
        std::fs::write(p, &b[..3]).unwrap();
        Err(io::Error::other("disk full"))
    })
    .unwrap_err();
    assert_eq!(err.to_string(), "disk full");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        b"old complete contents",
        "destination must be untouched after a failed write"
    );
    assert!(
        !path.with_file_name("fig.json.tmp").exists(),
        "failed write must not leak its temp file"
    );

    write_atomic(&path, b"replacement").unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), b"replacement");
    assert!(!path.with_file_name("fig.json.tmp").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn inject_spec_parses_and_rejects() {
    let fi = parse_inject("seed=7,rate=0.25").unwrap();
    assert_eq!((fi.seed, fi.rate), (7, 0.25));
    let fi = parse_inject("rate=1,seed=3").unwrap();
    assert_eq!((fi.seed, fi.rate), (3, 1.0));
    assert_eq!(parse_inject("seed=9").map(|f| f.rate), Some(1.0));
    assert!(parse_inject("rate=0.5").is_none(), "seed is mandatory");
    assert!(parse_inject("seed=1,rate=1.5").is_none(), "rate > 1");
    assert!(parse_inject("seed=x").is_none());
    assert!(parse_inject("bogus=1").is_none());
    assert!(parse_inject("").is_none());
}

#[test]
fn empty_juliet_counts_are_zero() {
    let c = JulietCounts::default();
    assert_eq!(
        (
            c.false_positives,
            c.true_negatives,
            c.true_positives,
            c.false_negatives
        ),
        (0, 0, 0, 0)
    );
}
