//! The `.bang` project document: one text file holding a complete Banger
//! project — hierarchical design, PITS programs and target machine — so
//! projects can be saved, versioned and exchanged (Banger stored designs
//! as Macintosh documents; this is the headless equivalent).
//!
//! ## Format
//!
//! ```text
//! project <name>
//!
//! machine <topology-spec>        # e.g. hypercube:2, mesh:4x4
//!   speed <f>                    # processor speed
//!   process-startup <f>
//!   msg-startup <f>
//!   rate <f>                     # transmission rate
//!   hop-latency <f>              # optional: switches to cut-through
//! end
//!
//! design
//!   storage <name> <size>
//!   task <name> <weight> [prog <program>]
//!   compound <name>
//!     ... nested design lines ...
//!   end
//!   bind <compound> in|out <label> <inner-node-name>
//!   arc <src> -> <dst> [label <l>] [vol <v>]
//! end
//!
//! begin-program
//! task <Name>
//!   ...PITS source...
//! end
//! end-program
//! ```
//!
//! Node names are unique per level; `arc` without a label uses the
//! storage-name convention of [`HierGraph::add_flow`]. Comments start
//! with `#`.

use banger_calc::ProgramLibrary;
use banger_machine::{Machine, MachineParams, SwitchingMode, Topology};
use banger_taskgraph::{HierGraph, HierNodeId, NodeKind};
use std::collections::BTreeMap;
use std::fmt;

use crate::project::Project;

/// Errors from document parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct DocError {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column, where the error has one (PITS syntax errors).
    pub column: Option<u32>,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for DocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}", self.line)?;
        if let Some(column) = self.column {
            write!(f, ", column {column}")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for DocError {}

/// Parses a `.bang` document into a [`Project`] (machine included when a
/// `machine` section is present).
pub fn parse_project(text: &str) -> Result<Project, DocError> {
    parse_project_reusing(text, &ProgramLibrary::new())
}

/// [`parse_project`], taking from `donor` — the library of an earlier
/// version of the document — every program whose `begin-program` block is
/// byte for byte a block the donor was parsed from, instead of parsing and
/// compiling it again. The project is the one `parse_project(text)`
/// builds: a program's AST and bytecode are functions of its own text, and
/// nothing else of the donor is read.
pub fn parse_project_reusing(text: &str, donor: &ProgramLibrary) -> Result<Project, DocError> {
    let donor = donor.by_text();
    let mut lines = Numbered::new(text);
    let mut name = String::from("untitled");
    let mut design: Option<HierGraph> = None;
    let mut library = ProgramLibrary::new();
    // Program name -> line of its `begin-program`.
    let mut defined: BTreeMap<String, usize> = BTreeMap::new();
    let mut machine: Option<Machine> = None;

    while let Some((no, line)) = lines.next_content() {
        let mut parts = line.split_whitespace();
        match parts.next().unwrap() {
            "project" => {
                name = parts.collect::<Vec<_>>().join(" ");
                if name.is_empty() {
                    return Err(err(no, "project needs a name"));
                }
            }
            "machine" => {
                let spec = parts
                    .next()
                    .ok_or_else(|| err(no, "machine needs a topology spec"))?;
                let topo =
                    Topology::parse(spec).map_err(|e| err(no, &format!("bad topology: {e}")))?;
                machine = Some(parse_machine_body(&mut lines, topo)?);
            }
            "design" => {
                if design.is_some() {
                    return Err(err(no, "duplicate design section"));
                }
                let mut g = HierGraph::new(name.clone());
                parse_design_body(&mut lines, &mut g, 0)?;
                design = Some(g);
            }
            "begin-program" => {
                let mut src = String::new();
                let start = no;
                loop {
                    match lines.next_raw() {
                        Some((_, l)) if l.trim() == "end-program" => break,
                        Some((_, l)) => {
                            src.push_str(l);
                            src.push('\n');
                        }
                        None => return Err(err(start, "unterminated begin-program")),
                    }
                }
                // Positions in a program are relative to its block, whose
                // line 1 follows `begin-program`.
                let program = library
                    .add_source_from(&src, &donor)
                    .map_err(|e| DocError {
                        line: start + e.pos.line as usize,
                        column: Some(e.pos.col),
                        message: format!("bad PITS program: {}", e.message),
                    })?;
                if let Some(first) = defined.insert(program.clone(), start) {
                    return Err(err(
                        start,
                        &format!("duplicate program {program:?} (first defined at line {first})"),
                    ));
                }
            }
            other => return Err(err(no, &format!("unknown directive {other:?}"))),
        }
    }

    let design = design.ok_or_else(|| err(0, "document has no design section"))?;
    let mut project = Project::new(name, design);
    *project.library_mut() = library;
    if let Some(m) = machine {
        project.set_machine(m);
    }
    Ok(project)
}

fn err(line: usize, message: &str) -> DocError {
    DocError {
        line,
        column: None,
        message: message.to_string(),
    }
}

/// Line iterator tracking numbers, skipping comments/blank lines for
/// content reads but preserving everything for program bodies.
struct Numbered<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
}

impl<'a> Numbered<'a> {
    fn new(text: &'a str) -> Self {
        Numbered {
            lines: text.lines().enumerate(),
        }
    }

    fn next_raw(&mut self) -> Option<(usize, &'a str)> {
        self.lines.next().map(|(i, l)| (i + 1, l))
    }

    fn next_content(&mut self) -> Option<(usize, &'a str)> {
        loop {
            let (no, line) = self.next_raw()?;
            let t = line.trim();
            if !t.is_empty() && !t.starts_with('#') {
                return Some((no, t));
            }
        }
    }
}

fn parse_machine_body(lines: &mut Numbered<'_>, topo: Topology) -> Result<Machine, DocError> {
    let mut params = MachineParams::default();
    let mut hop_latency: Option<f64> = None;
    let mut speeds: Vec<(u32, f64)> = Vec::new();
    loop {
        let (no, line) = lines
            .next_content()
            .ok_or_else(|| err(0, "unterminated machine section"))?;
        if line == "end" {
            break;
        }
        let mut parts = line.split_whitespace();
        let key = parts.next().unwrap();
        let val = |parts: &mut std::str::SplitWhitespace<'_>| -> Result<f64, DocError> {
            parts
                .next()
                .ok_or_else(|| err(no, &format!("{key} needs a value")))?
                .parse()
                .map_err(|_| err(no, &format!("{key} value is not a number")))
        };
        match key {
            "speed" => params.processor_speed = val(&mut parts)?,
            "process-startup" => params.process_startup = val(&mut parts)?,
            "msg-startup" => params.msg_startup = val(&mut parts)?,
            "rate" => params.transmission_rate = val(&mut parts)?,
            "hop-latency" => hop_latency = Some(val(&mut parts)?),
            "relative-speed" => {
                // relative-speed <proc> <factor>
                let p: u32 = parts
                    .next()
                    .ok_or_else(|| err(no, "relative-speed needs a processor id"))?
                    .parse()
                    .map_err(|_| err(no, "bad processor id"))?;
                let f = val(&mut parts)?;
                speeds.push((p, f));
            }
            other => return Err(err(no, &format!("unknown machine key {other:?}"))),
        }
    }
    if let Some(h) = hop_latency {
        params.switching = SwitchingMode::CutThrough { hop_latency: h };
    }
    let mut m = Machine::try_new(topo, params).map_err(|e| err(0, &format!("bad machine: {e}")))?;
    for (p, f) in speeds {
        m.set_relative_speed(banger_machine::ProcId(p), f)
            .map_err(|e| err(0, &e))?;
    }
    Ok(m)
}

/// Deepest `compound` nesting a document may have — the cap PITS
/// nesting already has (`calc::parser`). The parser below, the printer,
/// `HierGraph`'s walks and its drop glue all recurse once per level, so a
/// deeper file must be a positioned error here, not a stack overflow
/// that takes `banger check` — or the daemon, for every client — down.
const MAX_COMPOUND_DEPTH: usize = 200;

/// Parses one design/compound section up to its `end`; `depth` is the
/// number of compounds enclosing it.
fn parse_design_body(
    lines: &mut Numbered<'_>,
    g: &mut HierGraph,
    depth: usize,
) -> Result<(), DocError> {
    let mut names: BTreeMap<String, HierNodeId> = BTreeMap::new();
    loop {
        let (no, line) = lines
            .next_content()
            .ok_or_else(|| err(0, "unterminated design/compound section"))?;
        if line == "end" {
            return Ok(());
        }
        let mut parts = line.split_whitespace();
        match parts.next().unwrap() {
            "storage" => {
                let n = parts
                    .next()
                    .ok_or_else(|| err(no, "storage needs a name"))?;
                let size: f64 = parts
                    .next()
                    .ok_or_else(|| err(no, "storage needs a size"))?
                    .parse()
                    .map_err(|_| err(no, "bad storage size"))?;
                insert_node(&mut names, no, n, g.add_storage(n, size))?;
            }
            "task" => {
                let n = parts.next().ok_or_else(|| err(no, "task needs a name"))?;
                let weight: f64 = parts
                    .next()
                    .ok_or_else(|| err(no, "task needs a weight"))?
                    .parse()
                    .map_err(|_| err(no, "bad task weight"))?;
                let id = match (parts.next(), parts.next()) {
                    (Some("prog"), Some(p)) => g.add_task_with_program(n, weight, p),
                    (None, _) => g.add_task(n, weight),
                    _ => return Err(err(no, "expected `prog <name>` or end of line")),
                };
                insert_node(&mut names, no, n, id)?;
            }
            "compound" => {
                let n = parts
                    .next()
                    .ok_or_else(|| err(no, "compound needs a name"))?;
                if depth == MAX_COMPOUND_DEPTH {
                    return Err(err(
                        no,
                        &format!("compounds nested deeper than {MAX_COMPOUND_DEPTH} levels"),
                    ));
                }
                let mut inner = HierGraph::new(n.to_string());
                parse_design_body(lines, &mut inner, depth + 1)?;
                insert_node(&mut names, no, n, g.add_compound(n, inner))?;
            }
            "bind" => {
                // bind <compound> in|out <label> <inner-node-name>
                let c = parts
                    .next()
                    .ok_or_else(|| err(no, "bind needs a compound"))?;
                let dir = parts.next().ok_or_else(|| err(no, "bind needs in|out"))?;
                let label = parts.next().ok_or_else(|| err(no, "bind needs a label"))?;
                let inner_name = parts
                    .next()
                    .ok_or_else(|| err(no, "bind needs an inner node name"))?;
                let &cid = names
                    .get(c)
                    .ok_or_else(|| err(no, &format!("unknown compound {c:?}")))?;
                let inner_id = find_inner(g, cid, inner_name)
                    .ok_or_else(|| err(no, &format!("no node {inner_name:?} in {c:?}")))?;
                let r = match dir {
                    "in" => g.bind_input(cid, label, inner_id),
                    "out" => g.bind_output(cid, label, inner_id),
                    _ => return Err(err(no, "bind direction must be `in` or `out`")),
                };
                r.map_err(|e| err(no, &format!("{e}")))?;
            }
            "arc" => {
                // arc <src> -> <dst> [label <l>] [vol <v>]
                let src = parts.next().ok_or_else(|| err(no, "arc needs a source"))?;
                let arrow = parts.next();
                if arrow != Some("->") {
                    return Err(err(no, "expected `->` after the arc source"));
                }
                let dst = parts
                    .next()
                    .ok_or_else(|| err(no, "arc needs a destination"))?;
                let mut label: Option<String> = None;
                let mut vol: f64 = 0.0;
                while let Some(key) = parts.next() {
                    match key {
                        "label" => {
                            label = Some(
                                parts
                                    .next()
                                    .ok_or_else(|| err(no, "label needs a value"))?
                                    .to_string(),
                            )
                        }
                        "vol" => {
                            vol = parts
                                .next()
                                .ok_or_else(|| err(no, "vol needs a value"))?
                                .parse()
                                .map_err(|_| err(no, "bad volume"))?
                        }
                        other => return Err(err(no, &format!("unknown arc key {other:?}"))),
                    }
                }
                let &s = names
                    .get(src)
                    .ok_or_else(|| err(no, &format!("unknown node {src:?}")))?;
                let &d = names
                    .get(dst)
                    .ok_or_else(|| err(no, &format!("unknown node {dst:?}")))?;
                let r = match label {
                    Some(l) => g.add_arc(s, d, l, vol),
                    None => g.add_flow(s, d),
                };
                r.map_err(|e| err(no, &format!("{e}")))?;
            }
            other => return Err(err(no, &format!("unknown design directive {other:?}"))),
        }
    }
}

fn insert_node(
    names: &mut BTreeMap<String, HierNodeId>,
    line: usize,
    name: &str,
    id: HierNodeId,
) -> Result<(), DocError> {
    if names.insert(name.to_string(), id).is_some() {
        return Err(err(line, &format!("duplicate node name {name:?}")));
    }
    Ok(())
}

fn find_inner(g: &HierGraph, compound: HierNodeId, name: &str) -> Option<HierNodeId> {
    match &g.node(compound)?.kind {
        NodeKind::Compound { expansion, .. } => expansion
            .nodes()
            .find(|(_, n)| n.name == name)
            .map(|(id, _)| id),
        _ => None,
    }
}

/// Serialises a project back to document text (round-trips with
/// [`parse_project`] up to comments and formatting).
pub fn print_project(project: &Project) -> String {
    let mut out = String::new();
    out.push_str(&format!("project {}\n\n", project.name()));

    if let Some(m) = project.machine() {
        out.push_str(&format!("machine {}\n", machine_spec(m)));
        let p = m.params();
        out.push_str(&format!("  speed {}\n", p.processor_speed));
        out.push_str(&format!("  process-startup {}\n", p.process_startup));
        out.push_str(&format!("  msg-startup {}\n", p.msg_startup));
        out.push_str(&format!("  rate {}\n", p.transmission_rate));
        if let SwitchingMode::CutThrough { hop_latency } = p.switching {
            out.push_str(&format!("  hop-latency {hop_latency}\n"));
        }
        for proc in m.proc_ids() {
            let s = m.relative_speed(proc);
            if s != 1.0 {
                out.push_str(&format!("  relative-speed {} {}\n", proc.0, s));
            }
        }
        out.push_str("end\n\n");
    }

    out.push_str("design\n");
    print_design_body(project.design(), &mut out, 1);
    out.push_str("end\n");

    for (_, prog) in project.library().iter() {
        out.push_str("\nbegin-program\n");
        out.push_str(&banger_calc::pretty::print_program(prog));
        out.push_str("end-program\n");
    }
    out
}

/// Reconstructs the compact topology spec from a built topology's name
/// (names are `kind-params`, specs are `kind:params`).
fn machine_spec(m: &Machine) -> String {
    let name = m.topology().name();
    match name.split_once('-') {
        Some((kind, params)) => format!("{kind}:{params}"),
        None => name.to_string(),
    }
}

fn print_design_body(g: &HierGraph, out: &mut String, depth: usize) {
    let pad = "  ".repeat(depth);
    for (_, node) in g.nodes() {
        match &node.kind {
            NodeKind::Storage { size } => {
                out.push_str(&format!("{pad}storage {} {}\n", node.name, size));
            }
            NodeKind::Task { weight, program } => match program {
                Some(p) => {
                    out.push_str(&format!("{pad}task {} {} prog {}\n", node.name, weight, p))
                }
                None => out.push_str(&format!("{pad}task {} {}\n", node.name, weight)),
            },
            NodeKind::Compound {
                expansion,
                inputs,
                outputs,
            } => {
                out.push_str(&format!("{pad}compound {}\n", node.name));
                print_design_body(expansion, out, depth + 1);
                out.push_str(&format!("{pad}end\n"));
                for (label, ids) in inputs {
                    for id in ids {
                        let inner = &expansion.node(*id).unwrap().name;
                        out.push_str(&format!("{pad}bind {} in {} {}\n", node.name, label, inner));
                    }
                }
                for (label, ids) in outputs {
                    for id in ids {
                        let inner = &expansion.node(*id).unwrap().name;
                        out.push_str(&format!(
                            "{pad}bind {} out {} {}\n",
                            node.name, label, inner
                        ));
                    }
                }
            }
        }
    }
    for arc in g.arcs() {
        let src = &g.node(arc.src).unwrap().name;
        let dst = &g.node(arc.dst).unwrap().name;
        out.push_str(&format!(
            "{pad}arc {} -> {} label {} vol {}\n",
            src, dst, arc.label, arc.volume
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const DOC: &str = "\
# A tiny project
project demo

machine hypercube:2
  speed 1
  process-startup 0.5
  msg-startup 1
  rate 4
end

design
  storage v 8
  task split 10 prog Split
  compound Work
    task double 20 prog Double
  end
  bind Work in lo double
  bind Work out d2 double
  task merge 5 prog Merge
  storage result 1
  arc v -> split
  arc split -> Work label lo vol 4
  arc Work -> merge label d2 vol 4
  arc merge -> result
end

begin-program
task Split
  in v
  out lo
begin
  lo := sum(v)
end
end-program

begin-program
task Double
  in lo
  out d2
begin
  d2 := lo * 2
end
end-program

begin-program
task Merge
  in d2
  out result
begin
  result := d2 + 1
end
end-program
";

    #[test]
    fn parses_and_executes() {
        let p = parse_project(DOC).unwrap();
        assert_eq!(p.name(), "demo");
        assert_eq!(p.library().len(), 3);
        assert!(p.machine().is_some());
        assert_eq!(p.machine().unwrap().processors(), 4);
        let f = p.flatten().unwrap();
        assert_eq!(f.graph.task_count(), 3);
        let report = p
            .run(
                &[(
                    "v".to_string(),
                    banger_calc::Value::array(vec![1.0, 2.0, 3.0]),
                )]
                .into_iter()
                .collect(),
            )
            .unwrap();
        // sum=6, doubled=12, +1=13
        assert_eq!(report.outputs["result"], banger_calc::Value::Num(13.0));
    }

    #[test]
    fn the_unbound_port_help_is_a_line_the_document_grammar_accepts() {
        use banger_analyze::Code;
        let unbound = DOC.replace("  bind Work in lo double\n", "");
        let broken = parse_project(&unbound).unwrap();
        let b020: Vec<_> = broken
            .diagnose()
            .iter()
            .filter(|d| d.code == Code::B020)
            .collect();
        assert_eq!(b020.len(), 1, "{b020:?}");
        // "add `bind Work in lo <inner-node>` so the arc can cross ...":
        // paste it, with a real inner node, after the compound.
        let help = b020[0].help.as_deref().unwrap();
        let line = help.split('`').nth(1).unwrap();
        let line = line.replace("<inner-node>", "double");
        let pasted = unbound.replace("  task merge", &format!("  {line}\n  task merge"));
        let fixed = parse_project(&pasted).unwrap_or_else(|e| panic!("{e}\n---\n{pasted}"));
        assert!(fixed.diagnose().iter().all(|d| d.code != Code::B020));
    }

    #[test]
    fn round_trips() {
        let p = parse_project(DOC).unwrap();
        let printed = print_project(&p);
        let p2 = parse_project(&printed).unwrap_or_else(|e| panic!("{e}\n---\n{printed}"));
        // Designs and libraries compare structurally; machines via params.
        assert_eq!(p.design(), p2.design());
        assert_eq!(p.library().len(), p2.library().len());
        assert_eq!(p.machine().unwrap(), p2.machine().unwrap());
        // And printing again is a fixpoint.
        assert_eq!(printed, print_project(&p2));
    }

    #[test]
    fn machine_extras_round_trip() {
        let doc = "\
project m
machine mesh:2x2
  speed 2
  rate 8
  hop-latency 0.25
  relative-speed 1 2.5
end
design
  task only 5
end
";
        let p = parse_project(doc).unwrap();
        let m = p.machine().unwrap();
        assert_eq!(
            m.params().switching,
            SwitchingMode::CutThrough { hop_latency: 0.25 }
        );
        assert_eq!(m.relative_speed(banger_machine::ProcId(1)), 2.5);
        let p2 = parse_project(&print_project(&p)).unwrap();
        assert_eq!(m, p2.machine().unwrap());
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        for (doc, needle) in [
            ("project\n", "needs a name"),
            ("project x\nfrobnicate\n", "unknown directive"),
            ("project x\ndesign\n  task t\nend\n", "needs a weight"),
            (
                "project x\ndesign\n  storage s 1\n  storage s 2\nend\n",
                "duplicate node",
            ),
            ("project x\ndesign\n  arc a -> b\nend\n", "unknown node"),
            ("project x\ndesign\n  task t 1\n", "unterminated"),
            ("project x\nmachine bogus:9\nend\n", "bad topology"),
            (
                "project x\nmachine ring:4\n  warp 9\nend\ndesign\nend\n",
                "unknown machine key",
            ),
            (
                "project x\nbegin-program\ntask T begin end\n",
                "unterminated begin-program",
            ),
            (
                "project x\nbegin-program\nnot pits\nend-program\n",
                "bad PITS",
            ),
            // A PITS syntax error names the line of the document, not of
            // the block: `:=` twice on line 6, two lines into the body.
            (
                "project x\n\nbegin-program\ntask T out x\nbegin\n  x := := 1\nend\nend-program\n",
                "line 6, column 8: bad PITS program: expected an expression",
            ),
        ] {
            let e = parse_project(doc).unwrap_err();
            assert!(
                e.to_string().contains(needle),
                "{doc:?}: got {e}, wanted {needle:?}"
            );
        }
    }

    #[test]
    fn a_second_program_of_the_same_name_is_a_positioned_error() {
        // The library replaces on the same name (the panel's "edit task"
        // flow); a document that defines a name twice is a mistake, and
        // the second definition used to win silently.
        let again = "\nbegin-program\ntask Merge\n  in d2\n  out result\nbegin\n  \
                     result := d2 * 100\nend\nend-program\n";
        let e = parse_project(&format!("{DOC}{again}")).unwrap_err();
        assert_eq!(
            e.to_string(),
            "line 54: duplicate program \"Merge\" (first defined at line 45)"
        );
    }

    #[test]
    fn unchanged_program_text_is_taken_from_the_donor() {
        let old = parse_project(DOC).unwrap();
        // Lines above the programs, a weight and one program body change.
        let edited = DOC
            .replace("project demo", "# moved\n\nproject demo")
            .replace("task split 10", "task split 11")
            .replace("d2 := lo * 2", "d2 := lo * 3");
        let new = parse_project_reusing(&edited, old.library()).unwrap();
        let shared = |name: &str| {
            Arc::ptr_eq(
                &old.library().get_compiled(name).unwrap(),
                &new.library().get_compiled(name).unwrap(),
            )
        };
        assert!(shared("Split") && shared("Merge"));
        assert!(!shared("Double"));
        // And it is the project a parse from nothing builds.
        let fresh = parse_project(&edited).unwrap();
        assert_eq!(new.design(), fresh.design());
        for (name, prog) in fresh.library().iter() {
            assert_eq!(new.library().get(name), Some(prog));
        }
    }

    /// `project deep` whose design is `depth` compounds, one inside the
    /// other, around a single task.
    fn nested_compounds(depth: usize) -> String {
        let mut doc = String::from("project deep\ndesign\n");
        for i in 0..depth {
            doc.push_str(&format!("compound c{i}\n"));
        }
        doc.push_str("task t 1\n");
        doc.push_str(&"end\n".repeat(depth + 1));
        doc
    }

    #[test]
    fn compound_nesting_is_capped_with_a_positioned_error() {
        // At the cap the document parses, and survives the recursive
        // walks behind it (printer, flatten, drop).
        let p = parse_project(&nested_compounds(MAX_COMPOUND_DEPTH)).unwrap();
        assert_eq!(parse_project(&print_project(&p)).unwrap().name(), "deep");
        assert_eq!(p.flatten().unwrap().graph.task_count(), 1);
        // One level more names the line of the offending `compound` (two
        // header lines, then one compound per line); 10,000 levels — the
        // stack overflow of ROADMAP item 1 — stop at the same place.
        for depth in [MAX_COMPOUND_DEPTH + 1, 10_000] {
            let e = parse_project(&nested_compounds(depth)).unwrap_err();
            assert_eq!(e.line, 2 + MAX_COMPOUND_DEPTH + 1, "depth {depth}");
            assert!(e.message.contains("nested deeper than 200"), "{e}");
        }
    }

    #[test]
    fn missing_design_rejected() {
        let e = parse_project("project x\n").unwrap_err();
        assert!(e.to_string().contains("no design"));
    }

    #[test]
    fn lu_project_round_trips_through_document() {
        use banger_machine::{MachineParams, Topology};
        let p = crate::figures::lu_project(
            3,
            Machine::new(Topology::hypercube(2), MachineParams::default()),
        );
        let printed = print_project(&p);
        let p2 = parse_project(&printed).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(p.design(), p2.design());
        // The reloaded project still solves Ax=b.
        let (a, b) = crate::lu::test_system(3);
        let report = p2.run(&crate::lu::lu_inputs(&a, &b)).unwrap();
        let want = crate::lu::solve_reference(&a, &b);
        let got = report.outputs["x"].as_array("x").unwrap();
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
    }
}
