"""Per-layer tracing from outside the program.

The tracer wraps the public entry points of each `mmslab` module and replaces
every binding of the original function that a caller looks up: module
globals in every `mmslab` module, and dict values held at module level (the
three-agent protocol table).  `ValuationOracle.value_mask` is patched on the
base class and only counted, since it runs millions of times per run.

Each wrapped call records a span (operation index, span id, parent id, name,
start, end).  A span's self time is its duration minus the time its child
spans cover; `core` has no spans of its own, so its cost lands in whichever
layer called it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, function, layer) for every wrapped entry point
ENTRY_POINTS = (
    ("mms", "mms_value", "mms.mms_value"),
    ("mms", "verify_alpha_mms_P", "mms.verify"),
    ("mms", "verify_alpha_mms_d", "mms.verify"),
    ("oracle", "exists_alpha_mms", "oracle.search"),
    ("oracle", "best_alpha", "oracle.search"),
    ("valuations", "is_monotone", "valuations.checkers"),
    ("valuations", "is_subadditive", "valuations.checkers"),
    ("valuations", "is_submodular", "valuations.checkers"),
    ("counterexamples", "structured_check_27", "counterexamples.structured_check_27"),
    ("protocols", "dispatch_three", "protocols"),
    ("protocols", "three_agents_322", "protocols"),
    ("protocols", "three_agents_521", "protocols"),
    ("protocols", "three_agents_431", "protocols"),
    ("protocols", "three_agents_422", "protocols"),
    ("protocols", "four_agents_3344", "protocols"),
    ("protocols", "two_types", "protocols"),
    ("protocols", "cut_and_choose_two", "protocols"),
    ("cuts", "desired_pieces", "cuts"),
    ("cuts", "desired_half", "cuts"),
    ("cuts", "max_desired_half", "cuts"),
    ("cli", "main", "cli.main"),
    ("cli", "instance_from_json", "cli.json"),
    ("cli", "instance_to_json", "cli.json"),
    ("cli", "certificate_to_json", "cli.json"),
    ("cli", "certificate_from_json", "cli.json"),
    ("cli", "canonical_json", "cli.json"),
)


class Tracer:
    def __init__(self):
        self.op = 0  # index of the operation in progress, set by the caller
        self.spans: list[tuple] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.queries_in: Counter = Counter()  # value_mask queries by innermost layer
        self.mu_self_s = 0.0  # mms_value self time nested directly under oracle.search
        self.queries = 0
        self.seen: dict[int, tuple[object, set]] = {}  # id(oracle) -> (oracle, masks)
        self.visited = 0
        self.checked = 0
        self.branches = 0
        self.placements = 0
        self._stack: list[list] = []  # [layer, child seconds, queries, span id]
        self._undo: list = []

    # --- wrappers -----------------------------------------------------------

    def _on_result(self, layer: str, result) -> None:
        if layer == "oracle.search":
            self.visited += result.visited
        elif layer == "valuations.checkers":
            self.checked += result.checked
        elif layer == "counterexamples.structured_check_27":
            self.branches += sum(p.branches for p in result.placements)
            self.placements += len(result.placements)

    def wrap(self, name: str, layer: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = len(self.spans)
            self.spans.append(None)  # reserve the id; filled in on return
            frame = [layer, 0.0, 0, span_id]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                    if layer == "mms.mms_value" and parent[0] == "oracle.search":
                        self.mu_self_s += own
                self.self_s[layer] += own
                self.calls[layer] += 1
                self.queries_in[layer] += frame[2]
                self.spans[span_id] = (
                    self.op, span_id, None if parent is None else parent[3], name, start, end
                )
            self._on_result(layer, result)
            return result

        return traced

    def _counting_value_mask(self, original):
        stack = self._stack
        seen = self.seen

        def value_mask(oracle, mask):
            self.queries += 1
            if stack:
                stack[-1][2] += 1
            entry = seen.get(id(oracle))
            if entry is None:
                seen[id(oracle)] = (oracle, {mask})  # holds the oracle so ids stay unique
            else:
                entry[1].add(mask)
            return original(oracle, mask)

        return value_mask

    # --- install / uninstall ---------------------------------------------------

    def install(self, lib) -> None:
        modules = [mod for name, mod in sys.modules.items()
                   if name == "mmslab" or name.startswith("mmslab.")]
        for mod_name, attr, layer in ENTRY_POINTS:
            original = getattr(getattr(lib, mod_name), attr)
            wrapper = self.wrap(f"{mod_name}.{attr}", layer, original)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((setattr, mod, key, original))
                    elif isinstance(val, dict):
                        for k, v in list(val.items()):
                            if v is original:
                                val[k] = wrapper
                                self._undo.append((dict.__setitem__, val, k, original))
        base = lib.valuations.ValuationOracle
        original = base.value_mask
        base.value_mask = self._counting_value_mask(original)
        self._undo.append((setattr, base, "value_mask", original))

    def uninstall(self) -> None:
        while self._undo:
            restore, target, key, original = self._undo.pop()
            restore(target, key, original)

    # --- report ------------------------------------------------------------------

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures as (value, unit); counts and self times are per
        operation, ratios and rates are over the whole traced run."""
        distinct = sum(len(masks) for _, masks in self.seen.values())
        mms_calls = self.calls["mms.mms_value"]
        search_s = self.self_s["oracle.search"]
        checker_s = self.self_s["valuations.checkers"]

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        return {
            "valuations.value_mask.queries": (self.queries / ops, "count"),
            "valuations.value_mask.distinct": (distinct / ops, "count"),
            "valuations.value_mask.hit_ratio": (ratio(self.queries - distinct, self.queries), "ratio"),
            "valuations.checkers.self_s": (checker_s / ops, "s"),
            "valuations.checkers.checked_per_s": (ratio(self.checked, checker_s), "1/s"),
            "mms.mms_value.calls": (mms_calls / ops, "count"),
            "mms.mms_value.self_s": (self.self_s["mms.mms_value"] / ops, "s"),
            "mms.mms_value.queries_per_call": (
                ratio(self.queries_in["mms.mms_value"], mms_calls), "count"),
            "mms.verify.self_s": (self.self_s["mms.verify"] / ops, "s"),
            "oracle.search.self_s": (search_s / ops, "s"),
            "oracle.search.visited": (self.visited / ops, "count"),
            "oracle.search.visited_per_s": (ratio(self.visited, search_s), "1/s"),
            "oracle.mu.self_s": (self.mu_self_s / ops, "s"),
            "counterexamples.structured_check_27.self_s": (
                self.self_s["counterexamples.structured_check_27"] / ops, "s"),
            "counterexamples.structured_check_27.branches": (
                ratio(self.branches, self.placements), "count"),
            "protocols.calls": (self.calls["protocols"] / ops, "count"),
            "protocols.self_s": (self.self_s["protocols"] / ops, "s"),
            "cuts.calls": (self.calls["cuts"] / ops, "count"),
            "cli.requests": (self.calls["cli.main"] / ops, "count"),
            "cli.main.self_s": (self.self_s["cli.main"] / ops, "s"),
            "cli.json.self_s": (self.self_s["cli.json"] / ops, "s"),
        }

    def write(self, path) -> None:
        """One JSON line per span: op, id, parent, name, start, end (seconds)."""
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
