//! Native-reference goldens: `run_native`'s exit, stdout, instruction
//! count and cycle count for every SPEC-shaped program (at scale 0.05),
//! a sample of Juliet good cases and a small program that prints. The
//! values were pinned from the per-instruction interpreter that preceded
//! the block kernel; any change to how native runs execute or charge
//! must keep them.

use janitizer_vm::{load_process, Exit, LoadOptions, Process};
use janitizer_workloads::{build_case, build_world, juliet_suite, library_base, BuildOptions};

const FUEL: u64 = 30_000_000_000;

/// `(program, exit code, FNV-1a-64 of stdout, insns, cycles)`.
const SPEC: [(&str, i64, u64, u64, u64); 28] = [
    ("perlbench", 23, 0xcbf29ce484222325, 295592, 463706),
    ("bzip2", 3, 0xcbf29ce484222325, 660812, 1087365),
    ("gcc", 242, 0xcbf29ce484222325, 271812, 442560),
    ("mcf", 159, 0xcbf29ce484222325, 216198, 373645),
    ("gobmk", 30, 0xcbf29ce484222325, 30844, 54035),
    ("hmmer", 243, 0xcbf29ce484222325, 674455, 1305503),
    ("sjeng", 185, 0xcbf29ce484222325, 632607, 1058592),
    ("libquantum", 45, 0xcbf29ce484222325, 696970, 1259688),
    ("h264ref", 67, 0xcbf29ce484222325, 276162, 531200),
    ("omnetpp", 128, 0xcbf29ce484222325, 52394, 103933),
    ("astar", 74, 0xcbf29ce484222325, 1473820, 2419733),
    ("xalancbmk", 161, 0xcbf29ce484222325, 260020, 409344),
    ("bwaves", 236, 0xcbf29ce484222325, 142275, 261007),
    ("gamess", 95, 0xcbf29ce484222325, 73728, 141110),
    ("milc", 4, 0xcbf29ce484222325, 126256, 246318),
    ("zeusmp", 38, 0xcbf29ce484222325, 276953, 476705),
    ("gromacs", 81, 0xcbf29ce484222325, 70397, 131279),
    ("cactusADM", 226, 0xcbf29ce484222325, 6684, 15805),
    ("leslie3d", 38, 0xcbf29ce484222325, 111546, 204401),
    ("namd", 0, 0xcbf29ce484222325, 181735, 326223),
    ("dealII", 52, 0xcbf29ce484222325, 153820, 289197),
    ("soplex", 128, 0xcbf29ce484222325, 348488, 669550),
    ("povray", 72, 0xcbf29ce484222325, 1842474, 3926885),
    ("calculix", 38, 0xcbf29ce484222325, 846092, 1286291),
    ("GemsFDTD", 80, 0xcbf29ce484222325, 116748, 215185),
    ("tonto", 104, 0xcbf29ce484222325, 36598, 73220),
    ("lbm", 141, 0xcbf29ce484222325, 149372, 286896),
    ("sphinx3", 230, 0xcbf29ce484222325, 298893, 542657),
];

/// `(Juliet case id, exit code, FNV-1a-64 of stdout, insns, cycles)` for
/// every 26th case's good variant.
const JULIET_GOOD: [(usize, i64, u64, u64, u64); 24] = [
    (0, 3, 0xcbf29ce484222325, 405, 1274),
    (26, 3, 0xcbf29ce484222325, 405, 1274),
    (52, 3, 0xcbf29ce484222325, 405, 1274),
    (78, 3, 0xcbf29ce484222325, 405, 1274),
    (104, 3, 0xcbf29ce484222325, 405, 1274),
    (130, 3, 0xcbf29ce484222325, 405, 1274),
    (156, 3, 0xcbf29ce484222325, 405, 1274),
    (182, 3, 0xcbf29ce484222325, 405, 1274),
    (208, 3, 0xcbf29ce484222325, 405, 1274),
    (234, 3, 0xcbf29ce484222325, 405, 1274),
    (260, 3, 0xcbf29ce484222325, 405, 1274),
    (286, 3, 0xcbf29ce484222325, 405, 1274),
    (312, 3, 0xcbf29ce484222325, 405, 1274),
    (338, 3, 0xcbf29ce484222325, 405, 1274),
    (364, 3, 0xcbf29ce484222325, 405, 1274),
    (390, 1, 0xcbf29ce484222325, 235, 1151),
    (416, 24, 0xcbf29ce484222325, 1913, 3822),
    (442, 40, 0xcbf29ce484222325, 3033, 5614),
    (468, 24, 0xcbf29ce484222325, 1913, 3822),
    (494, 40, 0xcbf29ce484222325, 3033, 5614),
    (520, 24, 0xcbf29ce484222325, 1913, 3822),
    (546, 22, 0xcbf29ce484222325, 1530, 3238),
    (572, 38, 0xcbf29ce484222325, 2570, 4934),
    (598, 30, 0xcbf29ce484222325, 2050, 4086),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn observed(mut p: Process) -> (i64, u64, u64, u64) {
    let exit = p.run_native(FUEL);
    let Exit::Exited(code) = exit else {
        panic!("native run did not exit: {exit:?}");
    };
    (code, fnv1a(&p.stdout), p.insns, p.cycles)
}

#[test]
fn spec_programs_match_their_pinned_native_runs() {
    let world = build_world(&BuildOptions {
        scale: 0.05,
        ..BuildOptions::default()
    });
    assert_eq!(world.workloads.len(), SPEC.len());
    for (i, (w, &(name, code, out, insns, cycles))) in world.workloads.iter().zip(&SPEC).enumerate()
    {
        assert_eq!(w.name, name);
        let load = LoadOptions {
            args: vec![world.args[i]],
            ..LoadOptions::default()
        };
        let p = load_process(&world.store, name, &load).expect("loads");
        assert_eq!(observed(p), (code, out, insns, cycles), "{name}");
    }
}

#[test]
fn juliet_good_cases_match_their_pinned_native_runs() {
    let base = library_base();
    let suite = juliet_suite();
    for &(id, code, out, insns, cycles) in &JULIET_GOOD {
        let store = build_case(&base, "case", &suite[id].good);
        let p = load_process(&store, "case", &LoadOptions::default()).expect("loads");
        assert_eq!(observed(p), (code, out, insns, cycles), "Juliet case {id}");
    }
}

/// None of the programs above print, so this one covers the bytes the
/// `write` syscall copies out: a string, then sixteen numbers computed
/// through recursive calls, then a negative number.
const PRINTING: &str = "long fib(long n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }\
long main() {\
  puts(\"native golden\");\
  long s = 0;\
  for (long i = 0; i < 16; i++) {\
    s = s * 3 + fib(i);\
    print_num(s);\
    puts(\"\");\
  }\
  print_num(0 - s);\
  puts(\" done\");\
  return s % 251;\
}";

#[test]
fn printing_program_matches_its_pinned_native_run() {
    let store = build_case(&library_base(), "case", PRINTING);
    let mut p = load_process(&store, "case", &LoadOptions::default()).expect("loads");
    assert_eq!(p.run_native(FUEL), Exit::Exited(83));
    assert_eq!(
        p.stdout_string(),
        "native golden\n0\n1\n4\n14\n45\n140\n428\n1297\n3912\n11770\n35365\n\
         106184\n318696\n956321\n2869340\n8608630\n-8608630 done\n"
    );
    assert_eq!((p.insns, p.cycles), (156303, 245568));
}
