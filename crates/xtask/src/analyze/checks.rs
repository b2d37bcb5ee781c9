//! The four interprocedural rules:
//!
//! - **ACP-A001 panic reachability** — no call path from a comm entry
//!   point (Communicator impls, acp-serve handlers, pipeline/optimizer
//!   hot paths) reaches `unwrap`/`expect`/`panic!`/`todo!`/
//!   `unreachable!`/`unimplemented!`.
//! - **ACP-A002 lock-order consistency** — the global lock-order graph
//!   (edges `held → acquired`, propagated along the call graph) is
//!   acyclic.
//! - **ACP-A003 blocking-under-lock** — no collective dispatch, wait or
//!   socket IO is reachable while a telemetry/recorder lock is held.
//! - **ACP-A004 must-wait linearity** — every dispatched collective
//!   handle reaches a `wait`/`wait_all`, an explicit discard, or the
//!   caller, instead of escaping into a field or collection.
//!
//! All four honour the `allow_verify(reason = ...)` marker at any frame:
//! on a panic site it removes the source, on a call site it cuts the
//! edge, on an escape line it blesses the escape.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use super::graph::{CallGraph, Edge};
use super::report::{rules, Finding, Frame, Stats};
use super::symbols::{FnId, FnRecord, SymbolTable};

/// What counts as an entry point / a telemetry lock / a blocking call.
/// Defaults describe this workspace; fixtures rely only on the trait
/// list and the name lists.
pub struct CheckConfig {
    /// Functions inside `impl <T> for …` or `trait <T>` blocks with one
    /// of these trait names are comm entry points.
    pub entry_traits: Vec<String>,
    /// Functions inside `impl <Type>` blocks with one of these type
    /// names are comm entry points.
    pub entry_impls: Vec<String>,
    /// Every non-test function in these files is an entry point
    /// (request handlers).
    pub entry_files: Vec<String>,
    /// A lock identity containing one of these substrings is a
    /// telemetry/recorder lock for ACP-A003.
    pub telemetry_markers: Vec<String>,
    /// Call names considered blocking for ACP-A003.
    pub blocking: Vec<String>,
    /// Call names that produce a `PendingOp` for ACP-A004.
    pub producers: Vec<String>,
}

impl Default for CheckConfig {
    fn default() -> Self {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect();
        CheckConfig {
            entry_traits: s(&["Communicator", "DistributedOptimizer", "WorkerTransport"]),
            entry_impls: s(&[
                "FusedPipeline",
                "Server",
                "ServedCommunicator",
                "CommWorker",
                "WorkerCommunicator",
            ]),
            entry_files: s(&["crates/serve/src/server.rs"]),
            telemetry_markers: s(&["Recorder", "recorder", "telemetry"]),
            blocking: s(&[
                "all_reduce",
                "all_reduce_rd",
                "all_gather_f32",
                "all_gather_u32",
                "broadcast",
                "global_topk",
                "barrier",
                "send_recv_f32",
                "exchange_f32s",
                "exchange_u32s",
                "wait",
                "wait_all",
                "recv",
                "recv_timeout",
                "read_msg",
                "write_msg",
                "write_submit",
                "write_done",
                "read_frame_into",
                "read_payload_head",
                "read_payload_body_into",
                "read_request_head",
                "read_response_head",
                "read_exact",
                "write_all",
                "flush",
                "connect",
                "accept",
                "join",
                "sleep",
                "park",
                "dispatch",
                "execute_collective",
                "execute_ring",
                "reform",
            ]),
            producers: s(&["all_reduce_start", "all_gather_start", "dispatch", "submit"]),
        }
    }
}

/// A guard acquired somewhere in a function body.
#[derive(Debug, Clone)]
struct Held {
    id: String,
    line: usize,
    binding: Option<String>,
    temp: bool,
    released: bool,
}

/// A direct acquisition site.
#[derive(Debug, Clone)]
struct AcqSite {
    func: FnId,
    id: String,
    line: usize,
}

/// Per-function dataflow: the held-lock set at every call site, plus the
/// function's direct acquisitions.
struct Flow {
    /// `(call index, held locks at that call)`, call order.
    at_call: Vec<(usize, Vec<(String, usize)>)>,
    /// Direct acquisitions (including via lock wrappers).
    acquires: Vec<AcqSite>,
}

fn flow_of(table: &SymbolTable, f: FnId) -> Flow {
    use super::parser::Event;
    let rec = &table.fns[f];
    let mut scopes: Vec<Vec<Held>> = vec![Vec::new()];
    let mut at_call = Vec::new();
    let mut acquires = Vec::new();
    for ev in &rec.def.events {
        match ev {
            Event::Open => scopes.push(Vec::new()),
            Event::Close => {
                scopes.pop();
                if scopes.is_empty() {
                    scopes.push(Vec::new());
                }
            }
            Event::StmtEnd => {
                if let Some(top) = scopes.last_mut() {
                    for g in top.iter_mut() {
                        if g.temp {
                            g.released = true;
                        }
                    }
                }
            }
            Event::DropVar(name) => {
                for scope in scopes.iter_mut() {
                    for g in scope.iter_mut() {
                        if g.binding.as_deref() == Some(name.as_str()) {
                            g.released = true;
                        }
                    }
                }
            }
            Event::Call(ci) => {
                let call = &rec.def.calls[*ci];
                let held: Vec<(String, usize)> = scopes
                    .iter()
                    .flatten()
                    .filter(|g| !g.released)
                    .map(|g| (g.id.clone(), g.line))
                    .collect();
                at_call.push((*ci, held));
                if let Some((id, _kind)) = table.acquisition(f, call) {
                    acquires.push(AcqSite {
                        func: f,
                        id: id.clone(),
                        line: call.line,
                    });
                    if let Some(top) = scopes.last_mut() {
                        top.push(Held {
                            id,
                            line: call.line,
                            binding: call.binding.clone(),
                            temp: call.binding.is_none(),
                            released: false,
                        });
                    }
                }
            }
        }
    }
    Flow { at_call, acquires }
}

/// Reverse multi-source BFS: for every function that can reach one of
/// `targets`, the first forward edge of a path there.
fn reverse_next(graph: &CallGraph, targets: &[FnId]) -> HashMap<FnId, Option<Edge>> {
    let mut next: HashMap<FnId, Option<Edge>> = HashMap::new();
    let mut queue: VecDeque<FnId> = VecDeque::new();
    for &t in targets {
        if next.insert(t, None).is_none() {
            queue.push_back(t);
        }
    }
    while let Some(fid) = queue.pop_front() {
        for e in &graph.into[fid] {
            if let std::collections::hash_map::Entry::Vacant(slot) = next.entry(e.caller) {
                slot.insert(Some(*e));
                queue.push_back(e.caller);
            }
        }
    }
    next
}

fn frame(rec: &FnRecord, line: usize) -> Frame {
    Frame {
        func: rec.qualified(),
        file: rec.file.clone(),
        line,
    }
}

/// Frames for a forward chain from `from` following `next` hops, ending
/// at the hop target.
fn chain_frames(table: &SymbolTable, next: &HashMap<FnId, Option<Edge>>, from: FnId) -> Vec<Frame> {
    let mut frames = Vec::new();
    let mut cur = from;
    while let Some(Some(edge)) = next.get(&cur) {
        frames.push(frame(&table.fns[edge.caller], edge.call_line));
        cur = edge.callee;
    }
    frames
}

/// Entry-point selection per the config.
pub fn entry_points(table: &SymbolTable, config: &CheckConfig) -> Vec<FnId> {
    let mut out = Vec::new();
    for (id, rec) in table.fns.iter().enumerate() {
        if rec.def.is_test {
            continue;
        }
        let trait_hit = rec
            .def
            .trait_name
            .as_deref()
            .is_some_and(|t| config.entry_traits.iter().any(|e| e == t));
        let impl_hit = rec
            .def
            .impl_type
            .as_deref()
            .is_some_and(|t| config.entry_impls.iter().any(|e| e == t));
        let file_hit = config.entry_files.iter().any(|f| rec.file.ends_with(f));
        if trait_hit || impl_hit || file_hit {
            out.push(id);
        }
    }
    out
}

/// ACP-A001: panic sites reachable from entry points.
fn check_panic_reach(
    table: &SymbolTable,
    graph: &CallGraph,
    entries: &[FnId],
    findings: &mut Vec<Finding>,
) {
    let parent = graph.reach_forward(entries, |e| e.allowed);
    let mut seen: BTreeSet<(String, usize, String)> = BTreeSet::new();
    for (&fid, _) in parent.iter() {
        let rec = &table.fns[fid];
        for p in &rec.def.panics {
            if p.allowed {
                continue;
            }
            if !seen.insert((rec.file.clone(), p.line, p.what.clone())) {
                continue;
            }
            let edges = CallGraph::chain_to(&parent, fid);
            let entry = edges.first().map(|e| e.caller).unwrap_or(fid);
            let mut chain: Vec<Frame> = edges
                .iter()
                .map(|e| frame(&table.fns[e.caller], e.call_line))
                .collect();
            chain.push(frame(rec, p.line));
            findings.push(Finding {
                rule: rules::PANIC_REACH,
                file: rec.file.clone(),
                line: p.line,
                message: format!(
                    "`{}` is reachable from comm entry `{}`: a panicking rank looks like a \
                     peer failure to the group — return a structured error, or mark the \
                     provably-unreachable frame with `// allow_verify(reason = \"...\")`",
                    p.what,
                    table.fns[entry].qualified()
                ),
                chain,
            });
        }
    }
}

/// One lock-order edge with its witness chain.
struct LockEdge {
    frames: Vec<Frame>,
    desc: String,
}

/// Builds the lock-order graph and reports cycles (ACP-A002) plus
/// blocking-under-telemetry-lock (ACP-A003).
#[allow(clippy::too_many_arguments)]
fn check_locks(
    table: &SymbolTable,
    graph: &CallGraph,
    config: &CheckConfig,
    flows: &[Flow],
    findings: &mut Vec<Finding>,
    stats: &mut Stats,
) {
    // Index direct acquisitions by lock identity.
    let mut by_lock: BTreeMap<String, Vec<AcqSite>> = BTreeMap::new();
    for flow in flows {
        for acq in &flow.acquires {
            by_lock.entry(acq.id.clone()).or_default().push(acq.clone());
        }
    }
    let mut lock_files: BTreeSet<String> = BTreeSet::new();
    for sites in by_lock.values() {
        for s in sites {
            lock_files.insert(table.fns[s.func].file.clone());
        }
    }
    stats.locks = by_lock.len();
    stats.lock_files = lock_files.into_iter().collect();

    // For each lock, which functions can reach a direct acquisition of
    // it (with next-hop chains for the witness).
    let mut reach_acq: BTreeMap<String, HashMap<FnId, Option<Edge>>> = BTreeMap::new();
    for (lock, sites) in &by_lock {
        let targets: Vec<FnId> = sites.iter().map(|s| s.func).collect();
        reach_acq.insert(lock.clone(), reverse_next(graph, &targets));
    }
    let acq_line_in = |lock: &str, fid: FnId| -> usize {
        by_lock
            .get(lock)
            .and_then(|sites| sites.iter().find(|s| s.func == fid))
            .map(|s| s.line)
            .unwrap_or(table.fns[fid].def.line)
    };

    // Which functions can reach a textual blocking call, with chains.
    let mut blocking_site: HashMap<FnId, (String, usize)> = HashMap::new();
    for (fid, rec) in table.fns.iter().enumerate() {
        if rec.def.is_test {
            continue;
        }
        if let Some(call) = rec
            .def
            .calls
            .iter()
            .find(|c| config.blocking.iter().any(|b| b == &c.name))
        {
            blocking_site.insert(fid, (call.name.clone(), call.line));
        }
    }
    let blocking_targets: Vec<FnId> = blocking_site.keys().copied().collect();
    let reach_blocking = reverse_next(graph, &blocking_targets);

    let is_telemetry =
        |id: &str| -> bool { config.telemetry_markers.iter().any(|m| id.contains(m)) };

    // Walk every call site with a non-empty held set.
    let mut lock_edges: BTreeMap<(String, String), LockEdge> = BTreeMap::new();
    let mut a003_seen: BTreeSet<(String, usize)> = BTreeSet::new();
    for (fid, flow) in flows.iter().enumerate() {
        let rec = &table.fns[fid];
        if rec.def.is_test {
            continue;
        }
        for (ci, held) in &flow.at_call {
            if held.is_empty() {
                continue;
            }
            let call = &rec.def.calls[*ci];
            // Direct acquisition under held locks → direct edges.
            if let Some((l2, _)) = table.acquisition(fid, call) {
                for (l1, l1_line) in held {
                    if *l1 == l2 && *l1_line == call.line {
                        continue; // the acquisition itself
                    }
                    lock_edges
                        .entry((l1.clone(), l2.clone()))
                        .or_insert_with(|| LockEdge {
                            frames: vec![frame(rec, call.line)],
                            desc: format!(
                                "`{}` acquires `{l2}` at {}:{} while holding `{l1}` \
                                 (acquired at line {l1_line})",
                                rec.qualified(),
                                rec.file,
                                call.line
                            ),
                        });
                }
            }
            let telemetry_held: Vec<&(String, usize)> =
                held.iter().filter(|(id, _)| is_telemetry(id)).collect();
            // Textual blocking call directly under a telemetry lock.
            if !telemetry_held.is_empty()
                && !call.allowed
                && config.blocking.iter().any(|b| b == &call.name)
                && table.acquisition(fid, call).is_none()
                && a003_seen.insert((rec.file.clone(), call.line))
            {
                let (l1, l1_line) = telemetry_held[0];
                findings.push(Finding {
                    rule: rules::BLOCKING_UNDER_LOCK,
                    file: rec.file.clone(),
                    line: call.line,
                    message: format!(
                        "blocking call `{}` while telemetry lock `{l1}` is held (acquired at \
                         line {l1_line}): collective dispatch, waits and socket IO must not \
                         run under recorder locks — copy the data out first",
                        call.name
                    ),
                    chain: vec![frame(rec, call.line)],
                });
            }
            if call.allowed {
                continue;
            }
            // Propagate through callees: acquisitions and blocking calls
            // reachable from the call while locks are held.
            for e in graph.out[fid].iter().filter(|e| e.call == *ci) {
                for (l2, next) in &reach_acq {
                    if !next.contains_key(&e.callee) {
                        continue;
                    }
                    for (l1, l1_line) in held {
                        if lock_edges.contains_key(&(l1.clone(), l2.clone())) {
                            continue;
                        }
                        let mut frames = vec![frame(rec, call.line)];
                        frames.extend(chain_frames(table, next, e.callee));
                        let terminal = frames
                            .last()
                            .map(|f| f.func.clone())
                            .unwrap_or_else(|| table.fns[e.callee].qualified());
                        // Find the acquiring function at the end of the
                        // chain for the terminal frame.
                        let mut acq_fn = e.callee;
                        while let Some(Some(edge)) = next.get(&acq_fn) {
                            acq_fn = edge.callee;
                        }
                        frames.push(frame(&table.fns[acq_fn], acq_line_in(l2, acq_fn)));
                        lock_edges
                            .entry((l1.clone(), l2.clone()))
                            .or_insert_with(|| LockEdge {
                                frames,
                                desc: format!(
                                    "`{}` holds `{l1}` (acquired at line {l1_line}) and \
                                     reaches an acquisition of `{l2}` via `{terminal}`",
                                    rec.qualified(),
                                ),
                            });
                    }
                }
                if !telemetry_held.is_empty() && reach_blocking.contains_key(&e.callee) {
                    let (l1, l1_line) = telemetry_held[0];
                    if a003_seen.insert((rec.file.clone(), call.line)) {
                        let mut chain = vec![frame(rec, call.line)];
                        chain.extend(chain_frames(table, &reach_blocking, e.callee));
                        let mut term = e.callee;
                        while let Some(Some(edge)) = reach_blocking.get(&term) {
                            term = edge.callee;
                        }
                        let (bname, bline) = blocking_site
                            .get(&term)
                            .cloned()
                            .unwrap_or_else(|| (call.name.clone(), call.line));
                        chain.push(frame(&table.fns[term], bline));
                        findings.push(Finding {
                            rule: rules::BLOCKING_UNDER_LOCK,
                            file: rec.file.clone(),
                            line: call.line,
                            message: format!(
                                "call `{}` can reach blocking call `{bname}` while telemetry \
                                 lock `{l1}` is held (acquired at line {l1_line}): copy the \
                                 data out of the recorder before dispatching or waiting",
                                call.name
                            ),
                            chain,
                        });
                    }
                }
            }
        }
    }
    stats.lock_edges = lock_edges.len();

    // Cycle detection over the lock-order graph.
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in lock_edges.keys() {
        adj.entry(from.as_str()).or_default().push(to.as_str());
    }
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in adj.keys().copied().collect::<Vec<_>>() {
        let mut stack = vec![(start, 0usize)];
        let mut path = vec![start];
        let mut on_path: BTreeSet<&str> = [start].into_iter().collect();
        while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
            let nexts = adj.get(node).map(Vec::as_slice).unwrap_or(&[]);
            if *idx >= nexts.len() {
                stack.pop();
                path.pop();
                on_path.remove(node);
                continue;
            }
            let nb = nexts[*idx];
            *idx += 1;
            if on_path.contains(nb) {
                // Found a cycle: the path suffix from nb.
                let pos = path.iter().position(|p| *p == nb).unwrap_or(0);
                let mut cycle: Vec<String> = path[pos..].iter().map(|s| s.to_string()).collect();
                // Canonical rotation for dedup.
                let min = cycle
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.as_str())
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                cycle.rotate_left(min);
                if reported.insert(cycle.clone()) {
                    report_cycle(&cycle, &lock_edges, findings);
                }
            } else {
                stack.push((nb, 0));
                path.push(nb);
                on_path.insert(nb);
            }
        }
    }
}

fn report_cycle(
    cycle: &[String],
    edges: &BTreeMap<(String, String), LockEdge>,
    findings: &mut Vec<Finding>,
) {
    let mut ring: Vec<String> = cycle.to_vec();
    ring.push(cycle[0].clone());
    let order = ring
        .iter()
        .map(|l| format!("`{l}`"))
        .collect::<Vec<_>>()
        .join(" → ");
    let mut descs = Vec::new();
    let mut chain = Vec::new();
    let mut anchor: Option<(String, usize)> = None;
    for w in ring.windows(2) {
        if let Some(e) = edges.get(&(w[0].clone(), w[1].clone())) {
            descs.push(e.desc.clone());
            if anchor.is_none() {
                if let Some(f) = e.frames.first() {
                    anchor = Some((f.file.clone(), f.line));
                }
            }
            chain.extend(e.frames.iter().cloned());
        }
    }
    let (file, line) = anchor.unwrap_or_else(|| ("<unknown>".to_string(), 1));
    findings.push(Finding {
        rule: rules::LOCK_ORDER,
        file,
        line,
        message: format!(
            "lock-order cycle (potential deadlock): {order}; conflicting chains: {}",
            descs.join(" ⇄ ")
        ),
        chain,
    });
}

/// ACP-A004: must-wait linearity for `PendingOp` producers.
fn check_must_wait(table: &SymbolTable, config: &CheckConfig, findings: &mut Vec<Finding>) {
    for (fid, rec) in table.fns.iter().enumerate() {
        if rec.def.is_test {
            continue;
        }
        for call in &rec.def.calls {
            if !config.producers.iter().any(|p| p == &call.name) || call.allowed {
                continue;
            }
            // Producer names are shared (`submit` is also the serve RPC
            // verb): only calls whose resolved target actually returns a
            // pending handle count. Unresolvable producers (trait
            // objects) are kept — the names on the default list all
            // return handles in this workspace.
            let resolved = table.resolve(fid, call);
            if !resolved.is_empty()
                && !resolved
                    .iter()
                    .any(|&c| table.fns[c].def.ret.contains("Pending"))
            {
                continue;
            }
            if let Some(v) = pending_escape(rec, call) {
                findings.push(v);
            }
        }
    }
}

/// Checks one producer call site; returns a finding if the handle
/// escapes.
fn pending_escape(rec: &FnRecord, call: &super::parser::Call) -> Option<Finding> {
    let body = rec.def.body_text.as_str();
    let base = rec.def.body_span.0;
    let stmt_lo = call.stmt_span.0.saturating_sub(base);
    let stmt_hi = (call.stmt_span.1.saturating_sub(base)).min(body.len());
    let stmt = &body[stmt_lo..stmt_hi];
    let after_call = &body[(call.call_end.saturating_sub(base)).min(body.len())..stmt_hi];
    // Chained wait / wait_all in the producing statement.
    if after_call.contains(".wait(") || stmt.contains("wait_all") {
        return None;
    }
    if call.tail_returned {
        return None;
    }
    let Some(binding) = call.binding.as_deref() else {
        // Bare statement or untracked pattern: the temporary drops at the
        // `;`, and `PendingOp`'s drop-drain (plus `#[must_use]`) covers
        // the discard. Not this rule's business.
        return None;
    };
    if binding.starts_with('_') {
        return None; // explicit discard → drop-drain
    }
    track_binding(rec, binding, stmt_hi, call, 0)
}

/// Follows a binding through the rest of the body; returns a finding on
/// escape or when the handle is never awaited.
fn track_binding(
    rec: &FnRecord,
    binding: &str,
    from: usize,
    origin: &super::parser::Call,
    depth: usize,
) -> Option<Finding> {
    let body = rec.def.body_text.as_str();
    if depth > 3 {
        return None;
    }
    let rest = &body[from.min(body.len())..];
    let mut saw_ok = false;
    let mut cursor = 0usize;
    while let Some(p) = find_ident(rest, binding, cursor) {
        cursor = p + binding.len();
        let abs = from + p;
        let (s_lo, s_hi) = stmt_span_in(body, abs);
        let stmt = &body[s_lo..s_hi];
        let line = body_line(rec, abs);
        if rec.allowed_line(line) {
            saw_ok = true;
            continue;
        }
        if stmt.contains(".wait(")
            || stmt.contains("wait_all")
            || stmt.contains("drop(")
            || stmt.trim_start().starts_with("return")
            || is_tail_stmt(body, s_lo, s_hi)
        {
            saw_ok = true;
            continue;
        }
        // Field / indexed store: `self.x = …b…`, `slot[i] = Some(b)`.
        if let Some(eq) = assignment_eq(stmt) {
            let (lhs, rhs) = stmt.split_at(eq);
            if find_ident(rhs, binding, 0).is_some()
                && !lhs.trim_start().starts_with("let ")
                && (lhs.contains('.') || lhs.contains('['))
            {
                return Some(escape_finding(rec, origin, line, "stored into a field"));
            }
        }
        // Pushed into a collection: track a local target, flag the rest.
        if let Some(target) = push_target(stmt, binding) {
            if target.contains('.') || target.contains('[') {
                return Some(escape_finding(
                    rec,
                    origin,
                    line,
                    "pushed into a field collection",
                ));
            }
            if let Some(f) = track_binding(rec, &target, s_hi, origin, depth + 1) {
                return Some(f);
            }
            saw_ok = true;
            continue;
        }
        // Rebinding: `let y = …b…;` — follow y.
        if let Some(rebound) = stmt
            .trim_start()
            .starts_with("let ")
            .then(|| super::parser::stmt_binding_pub(stmt))
            .flatten()
        {
            if rebound != binding {
                if let Some(f) = track_binding(rec, &rebound, s_hi, origin, depth + 1) {
                    return Some(f);
                }
                saw_ok = true;
                continue;
            }
        }
        // Any other use (argument transfer, method call on the handle):
        // responsibility moved; conservatively accepted — see DESIGN.md
        // §13 for why transfers are not escapes.
        saw_ok = true;
    }
    if saw_ok {
        None
    } else {
        Some(escape_finding(
            rec,
            origin,
            origin.line,
            "bound but never awaited, returned or dropped",
        ))
    }
}

fn escape_finding(rec: &FnRecord, origin: &super::parser::Call, line: usize, how: &str) -> Finding {
    Finding {
        rule: rules::MUST_WAIT,
        file: rec.file.clone(),
        line,
        message: format!(
            "`{}` result {how} in `{}` without reaching `wait`/`wait_all`: an escaped \
             `PendingOp` desynchronizes the rank's collective schedule — wait for it, return \
             it, or mark the drain site with `// allow_verify(reason = \"...\")`",
            origin.name,
            rec.qualified()
        ),
        chain: vec![
            Frame {
                func: rec.qualified(),
                file: rec.file.clone(),
                line: origin.line,
            },
            Frame {
                func: format!("{} (escape)", rec.qualified()),
                file: rec.file.clone(),
                line,
            },
        ],
    }
}

/// Word-boundary search for `ident` in `text` starting at `from`.
fn find_ident(text: &str, ident: &str, from: usize) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut start = from;
    while let Some(p) = text
        .get(start..)
        .and_then(|t| t.find(ident))
        .map(|p| p + start)
    {
        start = p + ident.len().max(1);
        let before_ok = p == 0
            || !(bytes[p - 1].is_ascii_alphanumeric()
                || bytes[p - 1] == b'_'
                || bytes[p - 1] == b'.');
        let after = p + ident.len();
        let after_ok =
            after >= bytes.len() || !(bytes[after].is_ascii_alphanumeric() || bytes[after] == b'_');
        if before_ok && after_ok {
            return Some(p);
        }
    }
    None
}

/// Statement span around `pos` in `body` (same contract as the parser's
/// internal version).
fn stmt_span_in(body: &str, pos: usize) -> (usize, usize) {
    let bytes = body.as_bytes();
    let mut lo = pos.min(bytes.len());
    while lo > 0 {
        match bytes[lo - 1] {
            b';' | b'{' | b'}' => break,
            _ => lo -= 1,
        }
    }
    let mut depth = 0isize;
    let mut hi = pos.min(bytes.len());
    while hi < bytes.len() {
        match bytes[hi] {
            b'{' | b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b'}' => {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            }
            b';' if depth <= 0 => {
                hi += 1;
                break;
            }
            _ => {}
        }
        hi += 1;
    }
    (lo, hi.min(bytes.len()))
}

fn is_tail_stmt(body: &str, s_lo: usize, s_hi: usize) -> bool {
    if body[s_lo..s_hi].trim_end().ends_with(';') {
        return false;
    }
    let after = body[s_hi..].trim_start();
    after.is_empty() || after.starts_with('}')
}

/// Offset of a plain `=` assignment in a statement (not `==`, `<=`,
/// `>=`, `!=`, `=>`, or compound `+=`-style operators).
fn assignment_eq(stmt: &str) -> Option<usize> {
    let bytes = stmt.as_bytes();
    for (i, b) in bytes.iter().enumerate() {
        if *b != b'=' {
            continue;
        }
        let prev = i.checked_sub(1).map(|j| bytes[j]);
        let next = bytes.get(i + 1);
        if next == Some(&b'=') || next == Some(&b'>') {
            continue;
        }
        if matches!(
            prev,
            Some(b'=')
                | Some(b'!')
                | Some(b'<')
                | Some(b'>')
                | Some(b'+')
                | Some(b'-')
                | Some(b'*')
                | Some(b'/')
                | Some(b'%')
                | Some(b'&')
                | Some(b'|')
                | Some(b'^')
        ) {
            continue;
        }
        return Some(i);
    }
    None
}

/// If `stmt` pushes `ident` into a collection, the collection's
/// receiver chain (`self.stash`, `v`).
fn push_target(stmt: &str, ident: &str) -> Option<String> {
    let p = stmt.find(".push(")?;
    let args_start = p + ".push(".len();
    let close = stmt[args_start..].find(')')? + args_start;
    find_ident(&stmt[args_start..close], ident, 0)?;
    let bytes = stmt.as_bytes();
    let mut k = p;
    while k > 0
        && (bytes[k - 1].is_ascii_alphanumeric() || bytes[k - 1] == b'_' || bytes[k - 1] == b'.')
    {
        k -= 1;
    }
    let target = stmt[k..p].trim_matches('.').to_string();
    (!target.is_empty()).then_some(target)
}

fn body_line(rec: &FnRecord, body_offset: usize) -> usize {
    let upto = &rec.def.body_text[..body_offset.min(rec.def.body_text.len())];
    rec.def.body_line0 + upto.bytes().filter(|b| *b == b'\n').count() + 1
}

/// Runs all four checks.
pub fn run_checks(
    table: &SymbolTable,
    graph: &CallGraph,
    config: &CheckConfig,
    stats: &mut Stats,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    let entries = entry_points(table, config);
    stats.entries = entries.len();
    check_panic_reach(table, graph, &entries, &mut findings);
    let flows: Vec<Flow> = (0..table.fns.len()).map(|f| flow_of(table, f)).collect();
    check_locks(table, graph, config, &flows, &mut findings, stats);
    check_must_wait(table, config, &mut findings);
    findings.sort_by(|a, b| (a.rule, &a.file, a.line).cmp(&(b.rule, &b.file, b.line)));
    findings
}
