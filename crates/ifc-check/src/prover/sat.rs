//! A small CDCL SAT solver — two-watched-literal propagation, first-UIP
//! clause learning with non-chronological backjumping, VSIDS branching
//! with phase saving, and geometric restarts.
//!
//! Hand-rolled in the same no-external-deps spirit as the repo's JSON
//! codec: the prover needs a complete decision procedure, not a
//! competitive one — the self-composition cones it discharges are small,
//! and a conflict budget turns every runaway query into an honest
//! `Unknown` instead of a hang.

/// A solver literal: `var << 1 | negated`.
pub type SLit = u32;

/// Builds a positive or negated literal.
#[must_use]
pub const fn slit(var: u32, neg: bool) -> SLit {
    var << 1 | neg as u32
}

const fn var_of(l: SLit) -> u32 {
    l >> 1
}

/// Negates a literal.
#[must_use]
pub const fn neg(l: SLit) -> SLit {
    l ^ 1
}

/// Outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found (readable via [`Solver::value`]).
    Sat,
    /// The formula is unsatisfiable.
    Unsat,
    /// The conflict budget ran out before an answer.
    Budget,
}

/// Counters the prove report surfaces per query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Distinct variables.
    pub vars: u64,
    /// Clauses added (original, not learnt).
    pub clauses: u64,
    /// Learnt clauses.
    pub learnt: u64,
    /// Conflicts analysed.
    pub conflicts: u64,
    /// Branching decisions.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
}

impl SolverStats {
    /// Adds another query's counters into this accumulator.
    pub fn absorb(&mut self, other: &SolverStats) {
        self.vars += other.vars;
        self.clauses += other.clauses;
        self.learnt += other.learnt;
        self.conflicts += other.conflicts;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.restarts += other.restarts;
    }
}

const UNASSIGNED: u8 = 2;

/// A max-heap over variable activities with position tracking, so
/// re-inserts and bumps stay `O(log n)`.
#[derive(Default)]
struct VarHeap {
    heap: Vec<u32>,
    pos: Vec<Option<u32>>,
}

impl VarHeap {
    fn grow(&mut self, vars: usize) {
        self.pos.resize(vars, None);
    }

    fn less(a: f64, b: f64) -> bool {
        a < b
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let p = (i - 1) / 2;
            if Self::less(act[self.heap[p] as usize], act[self.heap[i] as usize]) {
                self.heap.swap(p, i);
                self.pos[self.heap[p] as usize] = Some(p as u32);
                self.pos[self.heap[i] as usize] = Some(i as u32);
                i = p;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len()
                && Self::less(act[self.heap[best] as usize], act[self.heap[l] as usize])
            {
                best = l;
            }
            if r < self.heap.len()
                && Self::less(act[self.heap[best] as usize], act[self.heap[r] as usize])
            {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap.swap(best, i);
            self.pos[self.heap[best] as usize] = Some(best as u32);
            self.pos[self.heap[i] as usize] = Some(i as u32);
            i = best;
        }
    }

    fn insert(&mut self, v: u32, act: &[f64]) {
        if self.pos[v as usize].is_some() {
            return;
        }
        self.heap.push(v);
        let i = self.heap.len() - 1;
        self.pos[v as usize] = Some(i as u32);
        self.sift_up(i, act);
    }

    fn bumped(&mut self, v: u32, act: &[f64]) {
        if let Some(i) = self.pos[v as usize] {
            self.sift_up(i as usize, act);
        }
    }

    fn pop(&mut self, act: &[f64]) -> Option<u32> {
        let top = *self.heap.first()?;
        self.pos[top as usize] = None;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = Some(0);
            self.sift_down(0, act);
        }
        Some(top)
    }
}

/// Every literal's watch list — the clauses watching it, in watch order —
/// in one pool. A list is a window of `pool` with room for `cap` entries;
/// a full list moves to the pool's end with twice the room, leaving its
/// old window unused. No list is ever its own heap allocation.
#[derive(Default)]
struct Watches {
    pool: Vec<u32>,
    /// Per literal: `(start, len, cap)` of its window.
    lists: Vec<(u32, u32, u32)>,
}

impl Watches {
    fn len(&self, lit: SLit) -> usize {
        self.lists[lit as usize].1 as usize
    }

    fn get(&self, lit: SLit, i: usize) -> u32 {
        self.pool[self.lists[lit as usize].0 as usize + i]
    }

    fn push(&mut self, lit: SLit, cr: u32) {
        let (start, len, cap) = &mut self.lists[lit as usize];
        if *len == *cap {
            let moved = u32::try_from(self.pool.len()).expect("watch pool fits u32 offsets");
            self.pool
                .extend_from_within(*start as usize..(*start + *len) as usize);
            *cap = (*cap * 2).max(2);
            self.pool.resize((moved + *cap) as usize, 0);
            *start = moved;
        }
        self.pool[(*start + *len) as usize] = cr;
        *len += 1;
    }

    /// `Vec::swap_remove` on one list.
    fn swap_remove(&mut self, lit: SLit, i: usize) {
        let (start, len, _) = &mut self.lists[lit as usize];
        *len -= 1;
        self.pool
            .swap(*start as usize + i, (*start + *len) as usize);
    }
}

/// The CDCL solver.
pub struct Solver {
    /// Clause arena, learnt clauses included: each clause is its length
    /// followed by its literals, and is named by the offset of that
    /// length, so a visit reads one place rather than a header and a
    /// separate heap block.
    arena: Vec<u32>,
    /// `add_clause`'s reused dedup buffer.
    scratch: Vec<SLit>,
    /// Watch lists indexed by literal: the clauses watching it.
    watches: Watches,
    /// Assignment per variable: 0 false, 1 true, 2 unassigned.
    assign: Vec<u8>,
    /// Decision level per variable.
    level: Vec<u32>,
    /// Implying clause per variable (`u32::MAX` for decisions).
    reason: Vec<u32>,
    trail: Vec<SLit>,
    trail_lim: Vec<u32>,
    prop_head: usize,
    activity: Vec<f64>,
    var_inc: f64,
    heap: VarHeap,
    phase: Vec<bool>,
    /// Level-0 conflict discovered while adding clauses.
    unsat: bool,
    stats: SolverStats,
    seen: Vec<bool>,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// An empty instance.
    #[must_use]
    pub fn new() -> Solver {
        Solver {
            arena: Vec::new(),
            scratch: Vec::new(),
            watches: Watches::default(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            prop_head: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: VarHeap::default(),
            phase: Vec::new(),
            unsat: false,
            stats: SolverStats::default(),
            seen: Vec::new(),
        }
    }

    /// Reserves room for `vars` more variables and `clauses` more clauses
    /// of `lits` literals in all, so a caller that knows (a bound on) its
    /// formula's growth up front skips most doubling reallocations.
    pub(crate) fn reserve(&mut self, vars: usize, clauses: usize, lits: usize) {
        self.assign.reserve(vars);
        self.level.reserve(vars);
        self.reason.reserve(vars);
        self.activity.reserve(vars);
        self.phase.reserve(vars);
        self.seen.reserve(vars);
        self.watches.lists.reserve(2 * vars);
        self.heap.heap.reserve(vars);
        self.heap.pos.reserve(vars);
        self.trail.reserve(vars);
        self.arena.reserve(clauses + lits);
    }

    /// A fresh variable.
    pub fn new_var(&mut self) -> u32 {
        let v = self.assign.len() as u32;
        self.assign.push(UNASSIGNED);
        self.level.push(0);
        self.reason.push(u32::MAX);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.lists.extend([(0, 0, 0); 2]);
        self.heap.grow(self.assign.len());
        self.heap.insert(v, &self.activity);
        self.stats.vars += 1;
        v
    }

    fn lit_value(&self, l: SLit) -> u8 {
        let a = self.assign[var_of(l) as usize];
        if a == UNASSIGNED {
            UNASSIGNED
        } else {
            a ^ (l & 1) as u8
        }
    }

    /// Adds a clause, discarding the last model. Returns `false` if the
    /// formula became trivially unsatisfiable (empty clause or
    /// conflicting units at level 0).
    pub fn add_clause(&mut self, lits: &[SLit]) -> bool {
        if self.unsat {
            return false;
        }
        self.cancel_until(0);
        // Dedup and drop clauses satisfied or falsified at level 0.
        let mut c = std::mem::take(&mut self.scratch);
        c.clear();
        let mut satisfied = false;
        for &l in lits {
            if self.lit_value(l) == 1 || c.contains(&neg(l)) {
                satisfied = true; // satisfied or tautology
                break;
            }
            if self.lit_value(l) == 0 || c.contains(&l) {
                continue; // falsified at level 0 or duplicate
            }
            c.push(l);
        }
        let ok = satisfied
            || match c.len() {
                0 => false,
                1 => {
                    self.enqueue(c[0], u32::MAX);
                    self.propagate().is_none()
                }
                _ => {
                    self.push_clause(&c);
                    self.stats.clauses += 1;
                    true
                }
            };
        self.unsat = !ok;
        self.scratch = c;
        ok
    }

    /// Appends a clause of two or more literals to the arena and watches
    /// its first two; returns its name.
    fn push_clause(&mut self, c: &[SLit]) -> u32 {
        let cr = u32::try_from(self.arena.len()).expect("clause arena fits u32 offsets");
        self.watches.push(c[0], cr);
        self.watches.push(c[1], cr);
        self.arena.push(c.len() as u32);
        self.arena.extend_from_slice(c);
        cr
    }

    /// The arena range of clause `cr`'s literals.
    fn span(&self, cr: u32) -> std::ops::Range<usize> {
        let start = cr as usize + 1;
        start..start + self.arena[cr as usize] as usize
    }

    fn enqueue(&mut self, l: SLit, reason: u32) {
        let v = var_of(l) as usize;
        debug_assert_eq!(self.assign[v], UNASSIGNED);
        self.assign[v] = 1 ^ (l & 1) as u8;
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.phase[v] = l & 1 == 0;
        self.trail.push(l);
        self.stats.propagations += 1;
    }

    /// Unit propagation; returns a conflicting clause index.
    fn propagate(&mut self) -> Option<u32> {
        while self.prop_head < self.trail.len() {
            let l = self.trail[self.prop_head];
            self.prop_head += 1;
            let falsified = neg(l);
            // New watches go to non-false literals, so nothing is pushed
            // onto this list while it is walked.
            let mut i = 0;
            while i < self.watches.len(falsified) {
                let ci = self.watches.get(falsified, i);
                let span = self.span(ci);
                let c0 = span.start;
                // Normalise: the falsified literal sits at slot 1.
                if self.arena[c0] == falsified {
                    self.arena.swap(c0, c0 + 1);
                }
                let first = self.arena[c0];
                if self.lit_value(first) == 1 {
                    i += 1;
                    continue;
                }
                // Look for a new watch.
                let mut moved = false;
                for k in c0 + 2..span.end {
                    let q = self.arena[k];
                    if self.lit_value(q) != 0 {
                        self.arena.swap(c0 + 1, k);
                        self.watches.push(q, ci);
                        self.watches.swap_remove(falsified, i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                if self.lit_value(first) == 0 {
                    return Some(ci); // conflict
                }
                // Unit: propagate first.
                self.enqueue(first, ci);
                i += 1;
            }
        }
        None
    }

    fn bump_var(&mut self, v: u32) {
        self.activity[v as usize] += self.var_inc;
        if self.activity[v as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.bumped(v, &self.activity);
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, conflict: u32) -> (Vec<SLit>, u32) {
        let mut learnt: Vec<SLit> = Vec::new();
        let mut counter = 0usize;
        let mut cursor: Option<SLit> = None;
        let mut clause = conflict;
        let current = self.trail_lim.len() as u32;
        let mut trail_pos = self.trail.len();
        loop {
            for idx in self.span(clause) {
                let q = self.arena[idx];
                // Skip the literal this clause propagated (the pivot of
                // the resolution step).
                if Some(q) == cursor {
                    continue;
                }
                let v = var_of(q) as usize;
                if self.seen[v] || self.level[v] == 0 {
                    continue;
                }
                self.seen[v] = true;
                self.bump_var(v as u32);
                if self.level[v] == current {
                    counter += 1;
                } else {
                    learnt.push(q);
                }
            }
            // Walk the trail backwards to the next marked literal.
            loop {
                trail_pos -= 1;
                if self.seen[var_of(self.trail[trail_pos]) as usize] {
                    break;
                }
            }
            let p = self.trail[trail_pos];
            let v = var_of(p) as usize;
            self.seen[v] = false;
            counter -= 1;
            if counter == 0 {
                cursor = Some(p);
                break;
            }
            clause = self.reason[v];
            cursor = Some(p);
        }
        let uip = neg(cursor.expect("first UIP exists"));
        let mut out = vec![uip];
        out.extend(learnt.iter().copied());
        for &q in &learnt {
            self.seen[var_of(q) as usize] = false;
        }
        // Backjump level: highest level among the non-UIP literals.
        let back = out[1..]
            .iter()
            .map(|&q| self.level[var_of(q) as usize])
            .max()
            .unwrap_or(0);
        // Move a literal of the backjump level into the second watch slot.
        if out.len() > 1 {
            let k = out[1..]
                .iter()
                .position(|&q| self.level[var_of(q) as usize] == back)
                .expect("backjump literal")
                + 1;
            out.swap(1, k);
        }
        (out, back)
    }

    fn cancel_until(&mut self, target: u32) {
        while self.trail_lim.len() as u32 > target {
            let lim = self.trail_lim.pop().expect("level") as usize;
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("trail");
                let v = var_of(l);
                self.assign[v as usize] = UNASSIGNED;
                self.reason[v as usize] = u32::MAX;
                self.heap.insert(v, &self.activity);
            }
        }
        self.prop_head = self.trail.len();
    }

    fn decide(&mut self) -> bool {
        while let Some(v) = self.heap.pop(&self.activity) {
            if self.assign[v as usize] == UNASSIGNED {
                self.trail_lim.push(self.trail.len() as u32);
                self.stats.decisions += 1;
                let l = slit(v, !self.phase[v as usize]);
                self.enqueue(l, u32::MAX);
                return true;
            }
        }
        false
    }

    /// Runs the search. `max_conflicts` bounds the work; exceeding it
    /// yields [`SolveResult::Budget`].
    pub fn solve(&mut self, max_conflicts: u64) -> SolveResult {
        self.search(None, max_conflicts)
    }

    /// Runs the search with `assumption` held true. `Unsat` then says the
    /// clauses imply its negation; unlike a unit clause, the assumption
    /// binds this call only, so the same instance can go on to be asked
    /// about another literal. Learnt clauses follow from the clauses
    /// alone and are kept for later calls.
    pub fn solve_assuming(&mut self, assumption: SLit, max_conflicts: u64) -> SolveResult {
        self.search(Some(assumption), max_conflicts)
    }

    fn search(&mut self, assumption: Option<SLit>, max_conflicts: u64) -> SolveResult {
        self.cancel_until(0);
        if self.unsat {
            return SolveResult::Unsat;
        }
        let budget_start = self.stats.conflicts;
        let mut restart_limit = 100u64;
        let mut conflicts_since_restart = 0u64;
        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.trail_lim.is_empty() {
                    self.unsat = true;
                    return SolveResult::Unsat;
                }
                if self.stats.conflicts - budget_start >= max_conflicts {
                    self.cancel_until(0);
                    return SolveResult::Budget;
                }
                let (learnt, back) = self.analyze(conflict);
                self.cancel_until(back);
                if learnt.len() == 1 {
                    self.enqueue(learnt[0], u32::MAX);
                } else {
                    let idx = self.push_clause(&learnt);
                    self.stats.learnt += 1;
                    self.enqueue(learnt[0], idx);
                }
                self.var_inc /= 0.95;
            } else {
                if conflicts_since_restart >= restart_limit {
                    conflicts_since_restart = 0;
                    restart_limit += restart_limit / 2;
                    self.stats.restarts += 1;
                    self.cancel_until(0);
                    continue;
                }
                // The assumption is the level-1 decision; once a level-0
                // fact makes it true it needs no level of its own.
                let pending =
                    assumption.filter(|&a| self.trail_lim.is_empty() && self.lit_value(a) != 1);
                if let Some(a) = pending {
                    if self.lit_value(a) == 0 {
                        return SolveResult::Unsat;
                    }
                    self.trail_lim.push(self.trail.len() as u32);
                    self.enqueue(a, u32::MAX);
                    continue;
                }
                if !self.decide() {
                    return SolveResult::Sat;
                }
            }
        }
    }

    /// The model value of a variable after [`SolveResult::Sat`], until
    /// the next [`Solver::add_clause`] or search.
    #[must_use]
    pub fn value(&self, var: u32) -> bool {
        self.assign[var as usize] == 1
    }

    /// The query's counters.
    #[must_use]
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: u32) -> SLit {
        slit(v, false)
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[lit(a)]));
        assert_eq!(s.solve(1000), SolveResult::Sat);
        assert!(s.value(a));

        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[lit(a)]));
        assert!(!s.add_clause(&[slit(a, true)]));
        assert_eq!(s.solve(1000), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_three_into_two_is_unsat() {
        // p[i][j]: pigeon i in hole j. 3 pigeons, 2 holes.
        let mut s = Solver::new();
        let p: Vec<Vec<u32>> = (0..3)
            .map(|_| (0..2).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            s.add_clause(&[lit(row[0]), lit(row[1])]);
        }
        for i in 0..3 {
            for k in (i + 1)..3 {
                for (&pi, &pk) in p[i].iter().zip(&p[k]) {
                    s.add_clause(&[slit(pi, true), slit(pk, true)]);
                }
            }
        }
        assert_eq!(s.solve(100_000), SolveResult::Unsat);
    }

    #[test]
    fn xor_chain_models_are_consistent() {
        // x0 ^ x1 = 1, x1 ^ x2 = 1, x0 ^ x2 = 0 is satisfiable;
        // flipping the last constraint to 1 makes it unsatisfiable.
        fn xor_clauses(s: &mut Solver, a: u32, b: u32, want: bool) {
            if want {
                s.add_clause(&[lit(a), lit(b)]);
                s.add_clause(&[slit(a, true), slit(b, true)]);
            } else {
                s.add_clause(&[lit(a), slit(b, true)]);
                s.add_clause(&[slit(a, true), lit(b)]);
            }
        }
        let mut s = Solver::new();
        let x: Vec<u32> = (0..3).map(|_| s.new_var()).collect();
        xor_clauses(&mut s, x[0], x[1], true);
        xor_clauses(&mut s, x[1], x[2], true);
        xor_clauses(&mut s, x[0], x[2], false);
        assert_eq!(s.solve(10_000), SolveResult::Sat);
        assert_ne!(s.value(x[0]), s.value(x[1]));
        assert_ne!(s.value(x[1]), s.value(x[2]));
        assert_eq!(s.value(x[0]), s.value(x[2]));

        let mut s = Solver::new();
        let x: Vec<u32> = (0..3).map(|_| s.new_var()).collect();
        xor_clauses(&mut s, x[0], x[1], true);
        xor_clauses(&mut s, x[1], x[2], true);
        xor_clauses(&mut s, x[0], x[2], true);
        assert_eq!(s.solve(10_000), SolveResult::Unsat);
    }

    #[test]
    fn dropped_clauses_leave_no_literals_behind() {
        // Four variables; `a` is a level-0 unit in both solvers.
        let fresh = || {
            let mut s = Solver::new();
            let v: Vec<u32> = (0..4).map(|_| s.new_var()).collect();
            assert!(s.add_clause(&[lit(v[0])]));
            (s, v)
        };
        let (mut s, v) = fresh();
        let (a, b, c, d) = (v[0], v[1], v[2], v[3]);
        // The first two are dropped after literals reached the buffer; the
        // third keeps two of its four.
        assert!(s.add_clause(&[lit(b), lit(c), slit(b, true)]), "tautology");
        assert!(
            s.add_clause(&[lit(c), lit(d), lit(a)]),
            "satisfied at level 0"
        );
        assert!(
            s.add_clause(&[lit(b), lit(d), lit(b), lit(d)]),
            "duplicates"
        );
        assert!(s.add_clause(&[slit(b, true), lit(c), lit(d)]));

        let (mut want, _) = fresh();
        assert!(want.add_clause(&[lit(b), lit(d)]));
        assert!(want.add_clause(&[slit(b, true), lit(c), lit(d)]));

        assert_eq!(s.arena, want.arena);
        assert_eq!(s.stats().clauses, 2);
        assert_eq!(s.stats(), want.stats());
        assert_eq!(s.solve(100), SolveResult::Sat);
        assert_eq!(want.solve(100), SolveResult::Sat);
        for &x in &v {
            assert_eq!(s.value(x), want.value(x), "var {x}");
        }
    }

    #[test]
    fn budget_returns_unknown() {
        // A hard pigeonhole with a one-conflict budget must give up.
        let mut s = Solver::new();
        let n = 6;
        let p: Vec<Vec<u32>> = (0..n + 1)
            .map(|_| (0..n).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            let c: Vec<SLit> = row.iter().map(|&v| lit(v)).collect();
            s.add_clause(&c);
        }
        for i in 0..=n {
            for k in (i + 1)..=n {
                for (&pi, &pk) in p[i].iter().zip(&p[k]) {
                    s.add_clause(&[slit(pi, true), slit(pk, true)]);
                }
            }
        }
        assert_eq!(s.solve(1), SolveResult::Budget);
    }
}
