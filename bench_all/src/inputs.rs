//! The benchmark's frozen inputs and everything generated from the seed.
//!
//! The five bundled projects are copies of `examples/projects/*.bang`
//! taken when the benchmark was defined, each with the literal `run`
//! inputs beside it, so a later change to the examples does not move the
//! numbers. Golden outputs live in `golden/`. Everything else — the
//! request mix, the edit variants, matrices, task graphs — comes from
//! `--seed` through [`Rng`].

use banger_calc::Value;
use std::collections::BTreeMap;

/// One frozen project with its `run` inputs and golden outputs.
pub struct Bundled {
    pub name: &'static str,
    pub text: &'static str,
    inputs: &'static str,
    /// `check` stdout; its exit code is in `golden/expected.txt`.
    pub check: &'static str,
    /// `gantt -H ETF` stdout; empty when `check` refuses the design.
    pub gantt: &'static str,
    /// `run` stdout; empty when `check` refuses the design.
    pub run: &'static str,
    /// Where an edit changes the text: `(needle, replacement)` with `{}`
    /// standing for the seeded number. The first is a task weight, the
    /// second a constant inside a PITS program.
    pub edit_sites: &'static [(&'static str, &'static str)],
}

macro_rules! bundled {
    ($name:literal, $sites:expr) => {
        Bundled {
            name: $name,
            text: include_str!(concat!("../inputs/", $name, ".bang")),
            inputs: include_str!(concat!("../inputs/", $name, ".inputs")),
            check: include_str!(concat!("../golden/", $name, ".check.out")),
            gantt: include_str!(concat!("../golden/", $name, ".gantt.out")),
            run: include_str!(concat!("../golden/", $name, ".run.out")),
            edit_sites: $sites,
        }
    };
}

pub const HEAT_PROBE: usize = 0;
pub const LU3: usize = 1;
pub const MATMUL: usize = 2;
pub const DENSE_LU: usize = 3;
pub const RACY: usize = 4;

pub static PROJECTS: [Bundled; 5] = [
    bundled!(
        "heat_probe",
        &[
            ("task couple 20 prog", "task couple {} prog"),
            (
                "summary[3] := (profile[1] + profile[2]) / 2",
                "summary[3] := (profile[1] + profile[2]) / {}",
            ),
        ]
    ),
    bundled!(
        "lu3",
        &[
            ("task fan1 9 prog", "task fan1 {} prog"),
            (
                "c[3] := c[3] / LU[(3 - 1) * 3 + 3]",
                "c[3] := c[3] * {} / {} / LU[(3 - 1) * 3 + 3]"
            ),
        ]
    ),
    bundled!(
        "matmul",
        &[
            ("task assemble 36 prog", "task assemble {} prog"),
            ("C[12 + i] := c1[i]", "C[12 + i] := c1[i] + {}"),
        ]
    ),
    // Read only: 60 ms to diagnose and 7 ms to run, it would be the whole
    // of any op that edits or runs it.
    bundled!("dense_lu", &[]),
    // Read only: `check` refuses it (exit 1), and must keep doing so.
    bundled!("racy_pipeline", &[]),
];

impl Bundled {
    pub fn inputs(&self) -> BTreeMap<String, Value> {
        parse_inputs(self.inputs).unwrap_or_else(|e| panic!("{}.inputs: {e}", self.name))
    }

    /// The project text after edit number `k`: one site, chosen by `k`,
    /// rewritten with a number drawn from `rng`. Every variant differs
    /// from the base text and parses, checks and runs like it.
    pub fn variant(&self, k: usize, rng: &mut Rng) -> String {
        let (needle, replacement) = self.edit_sites[k % self.edit_sites.len()];
        // No site is a loop bound or an array size: `diagnose` unrolls
        // loops, so such an edit would make an op's cost depend on the
        // seed. Edits that follow each other use different sites, so no
        // edit writes the bytes the file already holds.
        let number = 51 + (k as u64 % 16) / 2 + 8 * rng.below(2);
        let edited = self
            .text
            .replacen(needle, &replacement.replace("{}", &number.to_string()), 1);
        assert_ne!(
            edited, self.text,
            "{}: edit site {needle:?} not found",
            self.name
        );
        edited
    }
}

/// `name=value` lines as `banger run -i` takes them: a number, or
/// `[n, n, ...]`.
pub fn parse_inputs(text: &str) -> Result<BTreeMap<String, Value>, String> {
    let mut out = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let (name, value) = line
            .split_once('=')
            .ok_or_else(|| format!("bad input line {line:?} (want name=value)"))?;
        let value = value.trim();
        let parsed = match value.strip_prefix('[').and_then(|v| v.strip_suffix(']')) {
            Some(inner) => Value::array(
                inner
                    .split(',')
                    .map(|x| {
                        x.trim()
                            .parse::<f64>()
                            .map_err(|_| format!("bad element {x:?}"))
                    })
                    .collect::<Result<Vec<f64>, String>>()?,
            ),
            None => Value::Num(
                value
                    .parse::<f64>()
                    .map_err(|_| format!("bad number {value:?}"))?,
            ),
        };
        out.insert(name.trim().to_string(), parsed);
    }
    Ok(out)
}

/// Exact numbers checked in beside the golden outputs: `key value` lines.
pub fn expected(key: &str) -> f64 {
    let text = include_str!("../golden/expected.txt");
    text.lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("golden/expected.txt has no number for {key:?}"))
}

/// SplitMix64: the harness's own generator, so no input depends on a
/// library the program under test also uses.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `0..1`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A diagonally dominant row-major `n`×`n` matrix: LU without pivoting
/// is stable on it, and every element comes from the seed.
pub fn seeded_matrix(n: usize, rng: &mut Rng) -> Vec<f64> {
    let mut a = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            let r = rng.unit();
            a[i * n + j] = if i == j { n as f64 + 1.0 + r } else { r - 0.5 };
        }
    }
    a
}

/// A one-task dense-LU project of size `n`, laid out like the frozen
/// `dense_lu.bang`: the template `Project::expand_task` recognises.
pub fn dense_lu_doc(n: usize) -> String {
    let (sq, last) = (n * n, n - 1);
    format!(
        "project dense-lu-{n}

machine hypercube:4
  speed 1
  process-startup 0
  msg-startup 0
  rate 1
end

design
  storage a {sq}
  storage lu {sq}
  task fact {weight} prog DenseLU
  arc a -> fact label a vol {sq}
  arc fact -> lu label lu vol {sq}
end

begin-program
task DenseLU
  in a
  out lu
  local t, r, c
begin
  lu := a
  for t := 1 to {last} do
    for r := t + 1 to {n} do
      lu[(r - 1) * {n} + t] := lu[(r - 1) * {n} + t] / lu[(t - 1) * {n} + t]
      for c := t + 1 to {n} do
        lu[(r - 1) * {n} + c] := lu[(r - 1) * {n} + c] - lu[(r - 1) * {n} + t] * lu[(t - 1) * {n} + c]
      end
    end
  end
end
end-program
",
        weight = n * n * n / 3
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_parse_like_the_cli() {
        let m = parse_inputs("left=100\nv=[1, 2.5,3]\n").unwrap();
        assert_eq!(m["left"], Value::Num(100.0));
        assert_eq!(m["v"], Value::array(vec![1.0, 2.5, 3.0]));
        assert!(parse_inputs("nope").is_err());
        assert!(parse_inputs("a=[1,x]").is_err());
        for p in &PROJECTS {
            assert!(!p.inputs().is_empty(), "{}", p.name);
        }
        assert_eq!(
            PROJECTS[DENSE_LU].inputs()["a"]
                .as_array("a")
                .unwrap()
                .len(),
            64 * 64
        );
    }

    #[test]
    fn same_seed_same_inputs_and_every_variant_differs_from_the_base() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert_eq!(seeded_matrix(5, &mut a), seeded_matrix(5, &mut b));
        assert_ne!(seeded_matrix(5, &mut a), seeded_matrix(5, &mut Rng::new(8)));
        for p in PROJECTS.iter().filter(|p| !p.edit_sites.is_empty()) {
            for k in 0..4 {
                let v = p.variant(k, &mut a);
                assert_ne!(v, p.text);
                assert_eq!(v.lines().count(), p.text.lines().count());
            }
        }
    }

    #[test]
    fn the_frozen_dense_lu_is_the_n64_instance_of_the_generated_document() {
        let frozen = banger::parse_project(PROJECTS[DENSE_LU].text).unwrap();
        let mut generated = banger::parse_project(&dense_lu_doc(64)).unwrap();
        assert_eq!(
            banger::print_project(&frozen).replace("90000", "87381"),
            banger::print_project(&generated)
        );
        generated
            .expand_task("fact", 8)
            .expect("the template is recognised");
    }
}
