//! The edit generator of `prop_reuse`: the saves of an edit session, one
//! seeded rewrite of a `.bang` text at a time. Each kind of edit leaves a
//! different part of the document byte-identical — which is what a
//! rebuilt daemon entry reuses — and none is kept valid on purpose: an
//! edit may break an interface or a run, and the daemon must then say
//! what a fresh process says.

/// xorshift64, as `support/designs.rs` has it.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1))
    }

    pub fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Edit {
    /// A task's drawn weight: no program text changes.
    Weight,
    /// One token in one program body.
    BodyToken,
    /// Lines inserted above a program: every later block moves down, and
    /// positions in diagnostics must not.
    LinesAbove,
    /// A program renamed together with its `prog` references.
    Rename,
    /// Two programs trade bodies (their `task` header lines are swapped).
    SwapBodies,
    /// A storage size: the seeded length of its readers' inputs changes,
    /// under programs whose text does not.
    StorageSize,
    /// `:= :=` in a program body: the document no longer parses.
    SyntaxError,
}

pub const EDITS: [Edit; 7] = [
    Edit::Weight,
    Edit::BodyToken,
    Edit::LinesAbove,
    Edit::Rename,
    Edit::SwapBodies,
    Edit::StorageSize,
    Edit::SyntaxError,
];

/// `(begin-program line, end-program line)` of every program block.
fn blocks(lines: &[String]) -> Vec<(usize, usize)> {
    let at = |word: &str| {
        let found = lines
            .iter()
            .enumerate()
            .filter(move |(_, l)| l.trim() == word);
        found.map(|(i, _)| i).collect::<Vec<_>>()
    };
    at("begin-program")
        .into_iter()
        .zip(at("end-program"))
        .collect()
}

/// The line with its `n`th whitespace-separated token replaced.
fn with_token(line: &str, n: usize, token: &str) -> String {
    let indent = &line[..line.len() - line.trim_start().len()];
    let mut tokens: Vec<&str> = line.split_whitespace().collect();
    tokens[n] = token;
    format!("{indent}{}", tokens.join(" "))
}

/// `text` after one edit of the given kind at a seeded site, or `None`
/// when the document has no site for it.
pub fn apply(edit: Edit, text: &str, rng: &mut Rng) -> Option<String> {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let blocks = blocks(&lines);
    let design_end = blocks.first().map_or(lines.len(), |b| b.0);
    let design_lines = |keyword: &str| -> Vec<usize> {
        (0..design_end)
            .filter(|&i| {
                let mut t = lines[i].split_whitespace();
                t.next() == Some(keyword) && t.nth(1).is_some_and(|n| n.parse::<f64>().is_ok())
            })
            .collect()
    };
    let body_lines: Vec<usize> = blocks
        .iter()
        .flat_map(|&(b, e)| {
            let begin = (b..e).find(|&i| lines[i].trim() == "begin").unwrap_or(e);
            begin..e
        })
        .filter(|&i| lines[i].contains(" := "))
        .collect();
    let pick = |sites: &[usize], rng: &mut Rng| -> Option<usize> {
        (!sites.is_empty()).then(|| sites[rng.below(sites.len())])
    };
    match edit {
        Edit::Weight => {
            let i = pick(&design_lines("task"), rng)?;
            lines[i] = with_token(&lines[i], 2, &(1 + rng.below(99)).to_string());
        }
        Edit::StorageSize => {
            let i = pick(&design_lines("storage"), rng)?;
            let size = [1, 2, 3, 4, 5, 8, 9, 16, 36, 64][rng.below(10)];
            lines[i] = with_token(&lines[i], 2, &size.to_string());
        }
        Edit::BodyToken => {
            let i = pick(&body_lines, rng)?;
            let k = format!(" := {} + ", rng.below(10));
            lines[i] = lines[i].replacen(" := ", &k, 1);
        }
        Edit::SyntaxError => {
            let i = pick(&body_lines, rng)?;
            lines[i] = lines[i].replacen(" := ", " := := ", 1);
        }
        Edit::LinesAbove => {
            let (b, _) = *blocks.get(rng.below(blocks.len().max(1)))?;
            for line in &["", "", "# moved"][rng.below(3)..] {
                lines.insert(b, line.to_string());
            }
        }
        Edit::Rename => {
            let (b, _) = *blocks.get(rng.below(blocks.len().max(1)))?;
            let old = lines[b + 1].split_whitespace().nth(1)?.to_string();
            let new = format!("{old}R{}", rng.below(10));
            lines[b + 1] = with_token(&lines[b + 1], 1, &new);
            for line in &mut lines[..design_end] {
                let t: Vec<&str> = line.split_whitespace().collect();
                if t.len() == 5 && t[3] == "prog" && t[4] == old {
                    *line = with_token(line, 4, &new);
                }
            }
        }
        Edit::SwapBodies => {
            if blocks.len() < 2 {
                return None;
            }
            let a = rng.below(blocks.len());
            let b = (a + 1 + rng.below(blocks.len() - 1)) % blocks.len();
            lines.swap(blocks[a].0 + 1, blocks[b].0 + 1);
        }
    }
    Some(lines.join("\n") + "\n")
}
