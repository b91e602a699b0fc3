//! Expected outputs computed by the harness itself, never by the path
//! being timed: a native LU and a schedule checker.

use banger_sched::Schedule;
use banger_taskgraph::TaskGraph;

/// Right-looking LU without pivoting of a row-major `n`×`n` matrix, in
/// place: L below the diagonal (unit diagonal implied), U on and above.
/// Division before the row's updates, columns ascending — the order the
/// dense PITS template and its tiled expansion use, so factors compare
/// bit for bit.
pub fn native_lu(a: &mut [f64], n: usize) {
    assert_eq!(a.len(), n * n);
    for t in 0..n.saturating_sub(1) {
        for r in t + 1..n {
            a[r * n + t] /= a[t * n + t];
            for c in t + 1..n {
                a[r * n + c] -= a[r * n + t] * a[t * n + c];
            }
        }
    }
}

/// One task copy on one processor, as the checker sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slot {
    pub task: usize,
    pub proc: usize,
    pub start: f64,
    pub finish: f64,
    pub primary: bool,
}

/// Tolerance for comparing schedule times, as in `banger_sched`.
const TIME_EPS: f64 = 1e-6;

/// Checks a schedule against the precedence edges `(pred, succ)`:
/// every task has exactly one primary placement, each placement starts
/// no earlier than some copy of every predecessor finishes (DSH
/// duplicates tasks), and no two placements overlap on a processor.
/// Communication delay is the scheduler's business and is not checked.
pub fn check_schedule(
    n_tasks: usize,
    edges: &[(usize, usize)],
    slots: &[Slot],
) -> Result<(), String> {
    let mut copies: Vec<Vec<&Slot>> = vec![Vec::new(); n_tasks];
    for s in slots {
        if s.task >= n_tasks {
            return Err(format!("placement of unknown task {}", s.task));
        }
        if !(s.start.is_finite() && s.finish.is_finite())
            || s.start < -TIME_EPS
            || s.finish < s.start
        {
            return Err(format!(
                "task {} has bad times {}..{}",
                s.task, s.start, s.finish
            ));
        }
        copies[s.task].push(s);
    }
    for (t, c) in copies.iter().enumerate() {
        if c.iter().filter(|s| s.primary).count() != 1 {
            return Err(format!("task {t} has no single primary placement"));
        }
    }
    for &(pred, succ) in edges {
        let earliest = copies[pred]
            .iter()
            .map(|s| s.finish)
            .fold(f64::INFINITY, f64::min);
        for s in &copies[succ] {
            if s.start + TIME_EPS < earliest {
                return Err(format!(
                    "task {succ} starts at {} before any copy of predecessor {pred} finishes ({earliest})",
                    s.start
                ));
            }
        }
    }
    let mut by_proc: Vec<&Slot> = slots.iter().collect();
    by_proc.sort_by(|a, b| a.proc.cmp(&b.proc).then(a.start.total_cmp(&b.start)));
    for w in by_proc.windows(2) {
        if w[0].proc == w[1].proc && w[0].finish > w[1].start + TIME_EPS {
            return Err(format!(
                "tasks {} and {} overlap on processor {}",
                w[0].task, w[1].task, w[0].proc
            ));
        }
    }
    Ok(())
}

pub fn edges_of(g: &TaskGraph) -> Vec<(usize, usize)> {
    g.edges()
        .map(|(_, e)| (e.src.index(), e.dst.index()))
        .collect()
}

pub fn slots_of(s: &Schedule) -> Vec<Slot> {
    s.placements()
        .iter()
        .map(|p| Slot {
            task: p.task.index(),
            proc: p.proc.index(),
            start: p.start,
            finish: p.finish,
            primary: p.primary,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_lu_solves_like_the_reference_solver_on_n9() {
        let n = 9;
        let (a, b) = banger::lu::test_system(n);
        let mut lu = a.clone();
        native_lu(&mut lu, n);
        // Forward then back substitution on the factors.
        let mut x = b.clone();
        for i in 0..n {
            for j in 0..i {
                x[i] -= lu[i * n + j] * x[j];
            }
        }
        for i in (0..n).rev() {
            for j in i + 1..n {
                x[i] -= lu[i * n + j] * x[j];
            }
            x[i] /= lu[i * n + i];
        }
        let want = banger::lu::solve_reference(&a, &b);
        for (got, want) in x.iter().zip(&want) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    fn slot(task: usize, proc: usize, start: f64, finish: f64) -> Slot {
        Slot {
            task,
            proc,
            start,
            finish,
            primary: true,
        }
    }

    #[test]
    fn checker_accepts_a_valid_schedule_with_a_duplicate() {
        let edges = [(0, 1), (0, 2)];
        let mut dup = slot(0, 1, 0.0, 2.0);
        dup.primary = false;
        let slots = [
            slot(0, 0, 0.0, 2.0),
            dup,
            slot(1, 0, 2.0, 5.0),
            slot(2, 1, 2.0, 4.0),
        ];
        assert_eq!(check_schedule(3, &edges, &slots), Ok(()));
    }

    #[test]
    fn checker_rejects_overlap_precedence_and_coverage_faults() {
        let edges = [(0, 1)];
        let overlap = [slot(0, 0, 0.0, 2.0), slot(1, 0, 1.5, 3.0)];
        // Precedence holds nowhere here, so move task 1's start past it
        // on another edge set to isolate the overlap.
        let err = check_schedule(2, &[], &overlap).unwrap_err();
        assert!(err.contains("overlap"), "{err}");

        let early = [slot(0, 0, 0.0, 2.0), slot(1, 1, 1.0, 3.0)];
        let err = check_schedule(2, &edges, &early).unwrap_err();
        assert!(err.contains("before any copy of predecessor 0"), "{err}");

        let missing = [slot(0, 0, 0.0, 2.0)];
        let err = check_schedule(2, &edges, &missing).unwrap_err();
        assert!(err.contains("task 1 has no single primary"), "{err}");
    }
}
