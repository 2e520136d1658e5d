"""The four atum_analyze rules, computed over the semantic model.

Pure python over engine.Model — no libclang types cross this boundary,
so everything here is unit-testable on hosts without clang.

Rules (suppressions use `// lint: <rule>-ok(<why>)`):

  payload-escape         Payload::data()/bytes_view()-derived raw views
                         must not outlive their frame: no storing into
                         members without an owner alongside, no returning
                         from non-owning classes, no capture by scheduled
                         callables.
  handler-serde-safety   Every throwing ByteReader read reachable from a
                         network-facing handler must be dominated by a
                         SerdeError catch; wire-derived reserve/resize
                         arguments must pass a bound check first.
  hot-path-alloc         Functions transitively reachable from the
                         per-event/per-message entry points must not heap
                         allocate.
  unordered-iter         Range-for over a container whose *canonical* type
                         is unordered — catches auto&, typedefs and
                         structured bindings the regex rule could not see.
"""

from __future__ import annotations

import re

# Network-facing handler entry points (suffix-matched against qualified
# names, so fixture namespaces wrapping the same shapes also match). The
# repo convention routes every transport-registered lambda straight into a
# named on_* method; that convention is what makes this list sufficient,
# and it is documented in ARCHITECTURE.md "Correctness tooling".
SERDE_ENTRY_PATTERNS = [
    r"::on_message$",
    r"::on_direct$",
    r"::on_group_message$",
    r"::on_deliver$",
    r"::on_stream_message$",
    r"::on_share_message$",
    r"::on_walk$",
    r"::on_removal_notice$",
    r"::on_smr_decide$",
]

# Per-event / per-message hot-path entry points: simulator event dispatch,
# simulated delivery, gossip relay and the node's end-of-instant
# group-message fan-out.
HOT_ENTRY_PATTERNS = [
    r"sim::Simulator::step$",
    r"net::SimNetwork::send$",
    r"AtumNode::send_fanouts$",
    r"::relay_gossip$",
]

RULE_PAYLOAD_ESCAPE = "payload-escape"
RULE_HANDLER_SERDE = "handler-serde-safety"
RULE_HOT_PATH_ALLOC = "hot-path-alloc"
RULE_UNORDERED_ITER = "unordered-iter"

ALL_RULES = (
    RULE_PAYLOAD_ESCAPE,
    RULE_HANDLER_SERDE,
    RULE_HOT_PATH_ALLOC,
    RULE_UNORDERED_ITER,
)

RULE_HINTS = {
    RULE_PAYLOAD_ESCAPE: "store the owning Payload (or a slice) alongside the view, "
    "or materialize with to_bytes()",
    RULE_HANDLER_SERDE: "wrap the decode in try { ... } catch (const SerdeError&), or "
    "bound-check the wire-derived size before reserve/resize",
    RULE_HOT_PATH_ALLOC: "hoist the allocation out of the per-event path (reuse a "
    "buffer, use EventFn/Payload slices, or batch the work)",
    RULE_UNORDERED_ITER: "iterate a sorted copy, or annotate why the fold is "
    "order-independent",
}


class Finding:
    __slots__ = ("rule", "file", "line", "col", "message", "hint")

    def __init__(self, rule, file, line, col, message):
        self.rule = rule
        self.file = file
        self.line = line
        self.col = col
        self.message = message
        self.hint = RULE_HINTS[rule]

    def render(self):
        return "%s:%d:%d: [%s] %s\n    hint: %s" % (
            self.file,
            self.line,
            self.col,
            self.rule,
            self.message,
            self.hint,
        )

    def key(self):
        return (self.file, self.line, self.rule, self.message)


def _match_entries(model, patterns):
    regexes = [re.compile(p) for p in patterns]
    return [
        usr
        for usr, node in model.functions.items()
        if any(r.search(node.qualname) for r in regexes)
    ]


def _resolve_callee(model, call):
    """Maps a call site to a FunctionNode usr, if the target is in-repo.

    Unresolved calls (virtual dispatch through an interface, std::function
    invocation, dependent templates) fall back to a unique-simple-name
    match; ambiguity or a miss means the graph legitimately breaks there.
    """
    if call.usr is not None and call.usr in model.functions:
        return call.usr
    candidates = model.name_index.get(call.name, ())
    if len(candidates) == 1:
        return candidates[0]
    return None


def check_payload_escape(model):
    return [
        Finding(RULE_PAYLOAD_ESCAPE, f.file, f.line, f.col, f.desc)
        for f in model.escapes
    ]


def check_handler_serde(model):
    findings = []
    # Guard-state BFS: reach(usr, guarded). Reaching a function through at
    # least one unguarded path makes its own unguarded decode uses findings.
    seen = set()
    frontier = [(usr, False) for usr in _match_entries(model, SERDE_ENTRY_PATTERNS)]
    reached_unguarded = set()
    while frontier:
        usr, guarded = frontier.pop()
        if (usr, guarded) in seen:
            continue
        seen.add((usr, guarded))
        if not guarded:
            reached_unguarded.add(usr)
        node = model.functions[usr]
        for call in node.calls:
            callee = _resolve_callee(model, call)
            if callee is None:
                continue
            frontier.append((callee, guarded or call.guarded))

    for usr in sorted(reached_unguarded):
        node = model.functions[usr]
        for use in node.decode_uses:
            if not use.guarded:
                findings.append(
                    Finding(
                        RULE_HANDLER_SERDE,
                        use.file,
                        use.line,
                        use.col,
                        "%s reachable from a network handler without a dominating "
                        "SerdeError catch (in %s)" % (use.desc, node.qualname),
                    )
                )

    # Unchecked wire-derived reserve/resize: flagged wherever it occurs — a
    # reserve(2^60) throws std::length_error/bad_alloc, which no SerdeError
    # catch saves, so reachability does not gate this half of the rule.
    for fact in model.reserve_flags:
        findings.append(
            Finding(RULE_HANDLER_SERDE, fact.file, fact.line, fact.col, fact.desc)
        )
    return findings


def check_hot_path_alloc(model):
    findings = []
    seen = set()
    frontier = list(_match_entries(model, HOT_ENTRY_PATTERNS))
    while frontier:
        usr = frontier.pop()
        if usr in seen:
            continue
        seen.add(usr)
        node = model.functions[usr]
        for call in node.calls:
            callee = _resolve_callee(model, call)
            if callee is not None:
                frontier.append(callee)
    for usr in sorted(seen):
        node = model.functions[usr]
        for alloc in node.allocs:
            findings.append(
                Finding(
                    RULE_HOT_PATH_ALLOC,
                    alloc.file,
                    alloc.line,
                    alloc.col,
                    "%s on the per-event hot path (reachable in %s)"
                    % (alloc.desc, node.qualname),
                )
            )
    return findings


def check_unordered_iter(model):
    return [
        Finding(
            RULE_UNORDERED_ITER,
            f.file,
            f.line,
            f.col,
            "range-for over unordered container (canonical type: %s); iteration "
            "order feeds downstream state" % _short_type(f.desc),
        )
        for f in model.range_iters
    ]


def _short_type(spelling, limit=80):
    return spelling if len(spelling) <= limit else spelling[: limit - 3] + "..."


RULE_CHECKERS = {
    RULE_PAYLOAD_ESCAPE: check_payload_escape,
    RULE_HANDLER_SERDE: check_handler_serde,
    RULE_HOT_PATH_ALLOC: check_hot_path_alloc,
    RULE_UNORDERED_ITER: check_unordered_iter,
}


def run_rules(model, suppressions, rules=ALL_RULES):
    """Runs the requested rules; returns (findings, suppressed_count)."""
    findings = []
    suppressed = 0
    for rule in rules:
        for finding in RULE_CHECKERS[rule](model):
            if suppressions.allows(finding.file, finding.line, finding.rule):
                suppressed += 1
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.file, f.line, f.col, f.rule))
    # Dedup (headers seen in many TUs produce identical facts only once via
    # the model, but two rules can in principle hit one line).
    unique = []
    seen_keys = set()
    for f in findings:
        if f.key() in seen_keys:
            continue
        seen_keys.add(f.key())
        unique.append(f)
    return unique, suppressed
