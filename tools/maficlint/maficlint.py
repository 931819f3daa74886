#!/usr/bin/env python3
"""maficlint — project-invariant static analysis for the MAFIC tree.

Machine-checks the contracts every bit-identity guarantee in this repo
rests on (see docs/INVARIANTS.md for the catalogue):

  layering     the include DAG: util depends on nothing, core reaches the
               simulator only through declared seam/adapter files, sim
               never includes scenario/, ... (full edge list in the
               manifest).
  determinism  bans ambient-entropy calls (std::rand, time(),
               system_clock, random_device, getenv) everywhere in src/,
               and bans iteration over std::unordered_map/set in the
               translation units that feed fingerprints, stats
               aggregation or report output (manifest-listed).
  epoch        every FlowTables mutating method named in the manifest
               must bump the structural epoch; a method that shows a
               mutation signal (store_ insert/erase/clear, arena alloc/
               free) but is not listed fails the build.
  hotpath      functions annotated `// maficlint: hot` may not allocate
               (new/malloc/push_back/emplace_back/resize/reserve),
               construct std::function, or throw.
  seams        the classify path (the verdict pipeline) may not name the
               Simulator, the shared Prober, or the metrics ledger; the
               control-plane files may not name the datapath engines.

Escape hatch: `// maficlint: allow(<rule>) <reason>` on the offending
line (or the line directly above) suppresses that line for that rule.
The reason is mandatory; allows are counted and printed so the waiver
surface stays visible in CI logs.

Dependency-free: python3 stdlib only (tomllib for the manifest).

Usage:
  maficlint.py [--root DIR] [--manifest FILE]   lint src/ under DIR
  maficlint.py --self-test                      fixture battery (selftest/)
  maficlint.py --check-tools                    stdlib lint of tools/*.py
"""

from __future__ import annotations

import argparse
import ast
import builtins
import os
import re
import sys
import tomllib

# --------------------------------------------------------------------------
# Findings and allow() suppressions
# --------------------------------------------------------------------------

RULES = ("layering", "determinism", "epoch", "hotpath", "seams", "manifest")

ALLOW_RE = re.compile(r"//\s*maficlint:\s*allow\((\w+)\)\s*(.*)$")
HOT_RE = re.compile(r"//\s*maficlint:\s*hot\b")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __repr__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class Allow:
    def __init__(self, path, line, rule, reason):
        self.path = path
        self.line = line
        self.rule = rule
        self.reason = reason


def parse_allows(path, lines):
    """All allow() comments in the file, keyed by (rule, line). An allow
    suppresses its own line and the line below (so it can sit above a
    long statement)."""
    allows = []
    for i, text in enumerate(lines, start=1):
        m = ALLOW_RE.search(text)
        if m:
            allows.append(Allow(path, i, m.group(1), m.group(2).strip()))
    return allows


def allowed(allows, rule, line):
    for a in allows:
        if a.rule == rule and line in (a.line, a.line + 1):
            return a
    return None


# --------------------------------------------------------------------------
# Source model
# --------------------------------------------------------------------------


class SourceFile:
    """One file: raw text, per-line view, comment/string-stripped view
    (same line count, so line numbers survive), and allow() comments."""

    def __init__(self, relpath, text):
        self.relpath = relpath
        self.text = text
        self.lines = text.splitlines()
        self.code = strip_comments(text)
        self.code_lines = self.code.splitlines()
        self.allows = parse_allows(relpath, self.lines)


def strip_comments(text):
    """Blanks out comments and string/char literals, preserving newlines
    (and the `//` of maficlint markers is gone too — rules that need the
    markers read .lines, rules that match code read .code)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i = min(i + 2, n)
        elif c in "\"'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def load_tree(root, subdir, exts=(".hpp", ".cpp", ".h", ".cc")):
    """relpath (posix, relative to root) -> SourceFile for every source
    file under root/subdir."""
    files = {}
    base = os.path.join(root, subdir)
    for dirpath, _dirnames, filenames in os.walk(base):
        for name in sorted(filenames):
            if not name.endswith(exts):
                continue
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, root).replace(os.sep, "/")
            with open(full, encoding="utf-8") as f:
                files[rel] = SourceFile(rel, f.read())
    return files


def line_of_offset(text, offset):
    return text.count("\n", 0, offset) + 1


# --------------------------------------------------------------------------
# Rule 1: layering DAG
# --------------------------------------------------------------------------

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.M)


def check_layering(files, manifest):
    cfg = manifest.get("layering", {})
    allowed_edges = cfg.get("allowed", {})
    restricted = cfg.get("restricted", {})
    findings = []
    for rel, sf in sorted(files.items()):
        # layer = first path component under src/ ("src/core/x.hpp" -> core)
        parts = rel.split("/")
        if len(parts) < 3 or parts[0] != "src":
            continue
        layer = parts[1]
        inner = "/".join(parts[1:])  # e.g. core/flow_tables.hpp
        # Include paths are string literals, which the comment-stripped
        # view blanks — match the raw text, but only where the stripped
        # view still shows a preprocessor line (skips commented-out
        # includes).
        for m in INCLUDE_RE.finditer(sf.text):
            target = m.group(1)
            tgt_layer = target.split("/")[0]
            line = line_of_offset(sf.text, m.start())
            if line <= len(sf.code_lines) and \
                    not sf.code_lines[line - 1].lstrip().startswith("#"):
                continue
            a = allowed(sf.allows, "layering", line)
            if a:
                continue
            if layer not in allowed_edges:
                findings.append(Finding(
                    rel, line, "layering",
                    f"layer '{layer}' is not in the manifest's allowed-edge "
                    f"list (manifest drift?)"))
                continue
            if tgt_layer not in allowed_edges[layer]:
                findings.append(Finding(
                    rel, line, "layering",
                    f"include edge {layer} -> {tgt_layer} "
                    f"(\"{target}\") is not an allowed layering edge"))
                continue
            # Restricted target layer: only manifest-listed headers of the
            # target may be included outside the declared adapter files.
            rcfg = restricted.get(f"{layer}->{tgt_layer}")
            if rcfg is None:
                continue
            if target in rcfg.get("vocabulary", []):
                continue
            if inner in rcfg.get("adapters", []):
                continue
            findings.append(Finding(
                rel, line, "layering",
                f"{layer} file includes runtime header \"{target}\" of "
                f"restricted layer '{tgt_layer}' but is neither a declared "
                f"adapter nor including a vocabulary header"))
    return findings


# --------------------------------------------------------------------------
# Rule 2: determinism bans
# --------------------------------------------------------------------------


def check_determinism(files, manifest):
    cfg = manifest.get("determinism", {})
    banned = cfg.get("banned", [])
    fingerprint_tus = set(cfg.get("fingerprint_tus", []))
    findings = []
    for rel in sorted(fingerprint_tus - set(files)):
        findings.append(Finding(
            rel, 1, "manifest",
            f"determinism fingerprint TU '{rel}' not found (manifest "
            f"drift — update invariants.toml [determinism])"))
    for rel, sf in sorted(files.items()):
        for ban in banned:
            for m in re.finditer(ban["pattern"], sf.code):
                line = line_of_offset(sf.code, m.start())
                if allowed(sf.allows, "determinism", line):
                    continue
                findings.append(Finding(
                    rel, line, "determinism",
                    f"banned call '{m.group(0).strip()}': {ban['why']}"))
        if rel in fingerprint_tus:
            findings.extend(check_unordered_iteration(sf))
    return findings


UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set)\s*<[^;{}()]*?>[ \t\r\n&]*(\w+)\s*[;({=]")


def check_unordered_iteration(sf):
    """In a fingerprint-feeding TU: no range-for / .begin() iteration over
    any name declared (variable, member, or accessor return) with an
    unordered_map/unordered_set type anywhere in the same file."""
    tainted = set(UNORDERED_DECL_RE.findall(sf.code))
    findings = []
    if not tainted:
        return findings
    # Range-fors: `for (` ... one top-level non-`::` colon ... `)` with no
    # semicolon (which would make it a classic for).
    for m in re.finditer(r"\bfor\s*\(", sf.code):
        start = m.end() - 1
        depth = 0
        colon = -1
        end = -1
        for i in range(start, min(start + 2000, len(sf.code))):
            c = sf.code[i]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    end = i
                    break
            elif c == ";" and depth == 1:
                break  # classic for
            elif c == ":" and depth == 1 and colon < 0:
                prev = sf.code[i - 1]
                nxt = sf.code[i + 1] if i + 1 < len(sf.code) else ""
                if prev != ":" and nxt != ":":
                    colon = i
        if colon < 0 or end < 0:
            continue
        range_expr = sf.code[colon + 1:end]
        hits = sorted(t for t in tainted
                      if re.search(rf"\b{re.escape(t)}\b", range_expr))
        if not hits:
            continue
        line = line_of_offset(sf.code, m.start())
        if allowed(sf.allows, "determinism", line):
            continue
        findings.append(Finding(
            sf.relpath, line, "determinism",
            f"range-for over unordered container '{hits[0]}' in a "
            f"fingerprint-feeding TU: iteration order is hash-bucket "
            f"order; use a sorted/flat container or sort before emitting"))
    # Explicit iterator loops.
    for t in sorted(tainted):
        for m in re.finditer(rf"\b{re.escape(t)}\s*\.\s*c?begin\s*\(",
                             sf.code):
            line = line_of_offset(sf.code, m.start())
            if allowed(sf.allows, "determinism", line):
                continue
            findings.append(Finding(
                sf.relpath, line, "determinism",
                f"iterator walk over unordered container '{t}' in a "
                f"fingerprint-feeding TU"))
    return findings


# --------------------------------------------------------------------------
# Rule 3: FlowTables epoch-bump audit
# --------------------------------------------------------------------------


def method_bodies(code, class_name):
    """name -> (start_line, body_text) for every `T Class::name(...) {...}`
    out-of-line definition in a .cpp, via brace matching."""
    bodies = {}
    for m in re.finditer(
            rf"\b{re.escape(class_name)}\s*::\s*(~?\w+)\s*\(", code):
        name = m.group(1)
        # Walk past the parameter list, then any specifiers, to the body.
        i = m.end() - 1
        depth = 0
        while i < len(code):
            if code[i] == "(":
                depth += 1
            elif code[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        j = i + 1
        while j < len(code) and code[j] not in "{;":
            j += 1
        if j >= len(code) or code[j] == ";":
            continue  # declaration or pointer-to-member use
        # Initializer lists contain braces; match until depth returns to 0.
        k = j
        depth = 0
        while k < len(code):
            if code[k] == "{":
                depth += 1
            elif code[k] == "}":
                depth -= 1
                if depth == 0:
                    break
            k += 1
        body = code[j:k + 1]
        bodies[name] = (line_of_offset(code, m.start()), body)
    return bodies


def check_epoch(files, manifest):
    cfg = manifest.get("epoch", {})
    rel = cfg.get("file")
    findings = []
    if not rel:
        return findings
    sf = files.get(rel)
    if sf is None:
        return [Finding(rel, 1, "manifest",
                        f"epoch audit file '{rel}' not found")]
    class_name = cfg.get("class", "FlowTables")
    mutators = cfg.get("mutators", [])
    bump_re = cfg.get("bump", r"\+\+\s*epoch_|epoch_\s*\+=|epoch_\s*\+\+")
    signals = cfg.get("mutation_signals", [])
    bodies = method_bodies(sf.code, class_name)

    for name in mutators:
        if name not in bodies:
            findings.append(Finding(
                rel, 1, "manifest",
                f"manifest lists mutator {class_name}::{name} but no "
                f"definition was found (manifest drift — update "
                f"invariants.toml [epoch] mutators)"))
            continue
        line, body = bodies[name]
        if not re.search(bump_re, body):
            if allowed(sf.allows, "epoch", line):
                continue
            findings.append(Finding(
                rel, line, "epoch",
                f"{class_name}::{name} is a manifest-listed structural "
                f"mutator but its body never bumps the epoch "
                f"(expected /{bump_re}/)"))

    listed = set(mutators)
    for name, (line, body) in sorted(bodies.items()):
        if name in listed:
            continue
        hits = [s for s in signals if re.search(s, body)]
        if not hits:
            continue
        if allowed(sf.allows, "epoch", line):
            continue
        findings.append(Finding(
            rel, line, "epoch",
            f"{class_name}::{name} mutates table structure "
            f"(matched {hits[0]}) but is not in the manifest's mutator "
            f"list — add it AND bump the epoch, or it will invalidate "
            f"batched Peeks silently"))
    return findings


# --------------------------------------------------------------------------
# Rule 4: hot-path allocation lint
# --------------------------------------------------------------------------


def hot_regions(sf):
    """(anchor_line, fn_line, body_start_line, body_text) for every
    function definition annotated `// maficlint: hot` (marker on its own
    line or trailing a line directly above the signature)."""
    regions = []
    # Offsets of code line starts, to map marker lines into .code.
    line_start = [0]
    for i, c in enumerate(sf.code):
        if c == "\n":
            line_start.append(i + 1)
    for i, text in enumerate(sf.lines, start=1):
        if not HOT_RE.search(text):
            continue
        # Find the next `{` at or after the marker line; its matching close
        # brace bounds the function body.
        search_from = line_start[min(i, len(line_start) - 1)]
        open_idx = sf.code.find("{", search_from)
        if open_idx < 0:
            continue
        depth = 0
        k = open_idx
        while k < len(sf.code):
            if sf.code[k] == "{":
                depth += 1
            elif sf.code[k] == "}":
                depth -= 1
                if depth == 0:
                    break
            k += 1
        regions.append((i, line_of_offset(sf.code, open_idx),
                        open_idx, sf.code[open_idx:k + 1]))
    return regions


def check_hotpath(files, manifest):
    cfg = manifest.get("hotpath", {})
    banned = cfg.get("banned", [])
    findings = []
    hot_count = 0
    for rel, sf in sorted(files.items()):
        for _anchor, _fn_line, body_off, body in hot_regions(sf):
            hot_count += 1
            for ban in banned:
                for m in re.finditer(ban["pattern"], body):
                    line = line_of_offset(sf.code, body_off + m.start())
                    if allowed(sf.allows, "hotpath", line):
                        continue
                    findings.append(Finding(
                        rel, line, "hotpath",
                        f"hot function calls '{m.group(0).strip()}': "
                        f"{ban['why']}"))
    return findings, hot_count


# --------------------------------------------------------------------------
# Rule 5: seam discipline
# --------------------------------------------------------------------------


def check_seams(files, manifest):
    """Seam groups: the legacy top-level [seams] worker_files/banned pair,
    plus any number of NAMED sub-groups ([seams.<name>] with files= and
    [[seams.<name>.banned]]) so each side of a seam can declare its own
    vocabulary ban list (e.g. control-plane files may not name the
    datapath engines)."""
    cfg = manifest.get("seams", {})
    groups = []
    if cfg.get("worker_files"):
        groups.append(("classify-path", cfg.get("worker_files", []),
                       cfg.get("banned", [])))
    for name, sub in sorted(cfg.items()):
        if isinstance(sub, dict):
            groups.append((name.replace("_", "-"), sub.get("files", []),
                           sub.get("banned", [])))
    findings = []
    for label, group_files, banned in groups:
        for rel in group_files:
            sf = files.get(rel)
            if sf is None:
                findings.append(Finding(
                    rel, 1, "manifest",
                    f"seam-discipline {label} file '{rel}' not found "
                    f"(manifest drift — update invariants.toml [seams])"))
                continue
            for ban in banned:
                for m in re.finditer(ban["pattern"], sf.code):
                    line = line_of_offset(sf.code, m.start())
                    if allowed(sf.allows, "seams", line):
                        continue
                    findings.append(Finding(
                        rel, line, "seams",
                        f"{label} file names '{m.group(0).strip()}': "
                        f"{ban['why']}"))
    return findings


# --------------------------------------------------------------------------
# Allow-comment hygiene
# --------------------------------------------------------------------------


def check_allows(files):
    """Every allow() must name a known rule and carry a reason."""
    findings = []
    all_allows = []
    for rel, sf in sorted(files.items()):
        for a in sf.allows:
            all_allows.append(a)
            if a.rule not in RULES:
                findings.append(Finding(
                    rel, a.line, "manifest",
                    f"allow() names unknown rule '{a.rule}'"))
            if not a.reason:
                findings.append(Finding(
                    rel, a.line, "manifest",
                    f"allow({a.rule}) without a reason — the escape hatch "
                    f"requires a justification"))
    return findings, all_allows


# --------------------------------------------------------------------------
# Engine
# --------------------------------------------------------------------------


def run_all(files, manifest):
    findings = []
    findings += check_layering(files, manifest)
    findings += check_determinism(files, manifest)
    findings += check_epoch(files, manifest)
    hp, hot_count = check_hotpath(files, manifest)
    findings += hp
    findings += check_seams(files, manifest)
    allow_findings, allows = check_allows(files)
    findings += allow_findings
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings, allows, hot_count


def lint_main(root, manifest_path):
    with open(manifest_path, "rb") as f:
        manifest = tomllib.load(f)
    files = load_tree(root, "src")
    findings, allows, hot_count = run_all(files, manifest)
    for f in findings:
        print(f)
    print(f"maficlint: {len(files)} files, {hot_count} hot-annotated "
          f"functions, {len(allows)} allow() waivers, "
          f"{len(findings)} findings")
    for a in allows:
        print(f"  allow({a.rule}) {a.path}:{a.line}: {a.reason}")
    return 1 if findings else 0


# --------------------------------------------------------------------------
# --check-tools: stdlib-only lint of the repo's python gate scripts
# --------------------------------------------------------------------------


def collect_bindings(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.Global):
            names.update(node.names)
    return names


def check_python_file(path):
    """pyflakes-lite: syntax, unused module-level imports, and names that
    are loaded but bound nowhere in the module (scope-insensitive on
    purpose: no false positives, still catches typos and deleted
    helpers)."""
    problems = []
    with open(path, encoding="utf-8") as f:
        src = f.read()
    try:
        tree = ast.parse(src, filename=path)
    except SyntaxError as e:
        return [f"{path}:{e.lineno}: syntax error: {e.msg}"]

    bound = collect_bindings(tree)
    loaded = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.setdefault(node.id, node.lineno)
    builtin_names = set(dir(builtins)) | {"__file__", "__name__", "__doc__"}
    for name, lineno in sorted(loaded.items(), key=lambda kv: kv[1]):
        if name not in bound and name not in builtin_names:
            problems.append(f"{path}:{lineno}: undefined name '{name}'")

    # Unused imports (module level only; "import x as _x" opts out).
    used = set(loaded)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            root = node
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name):
                used.add(root.id)
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and \
                    node.module == "__future__":
                continue
            for alias in node.names:
                top = (alias.asname or alias.name).split(".")[0]
                if alias.name == "*" or top.startswith("_"):
                    continue
                if top not in used:
                    problems.append(
                        f"{path}:{node.lineno}: unused import '{top}'")
    return problems


def check_tools_main(root):
    targets = []
    for base in ("tools", "tools/maficlint"):
        d = os.path.join(root, base)
        if not os.path.isdir(d):
            continue
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                targets.append(os.path.join(d, name))
    problems = []
    for t in targets:
        problems.extend(check_python_file(t))
    for p in problems:
        print(p)
    print(f"maficlint --check-tools: {len(targets)} scripts, "
          f"{len(problems)} problems")
    return 1 if problems else 0


# --------------------------------------------------------------------------
# --self-test: seeded-violation fixtures + live epoch-deletion battery
# --------------------------------------------------------------------------


def selftest_main(repo_root):
    here = os.path.dirname(os.path.abspath(__file__))
    fixture_root = os.path.join(here, "selftest")
    with open(os.path.join(fixture_root, "invariants.toml"), "rb") as f:
        fixture_manifest = tomllib.load(f)
    with open(os.path.join(fixture_root, "expected.toml"), "rb") as f:
        expected_cfg = tomllib.load(f)

    failures = []

    def expect(cond, what):
        if cond:
            print(f"  ok   {what}")
        else:
            print(f"  FAIL {what}")
            failures.append(what)

    # -- 1. fixture tree: every seeded violation found, nothing else -------
    files = load_tree(fixture_root, "src")
    findings, allows, hot_count = run_all(files, fixture_manifest)
    got = {}
    for f in findings:
        got[(f.path, f.rule)] = got.get((f.path, f.rule), 0) + 1
    want = {}
    for e in expected_cfg.get("finding", []):
        key = (e["file"], e["rule"])
        want[key] = want.get(key, 0) + int(e.get("count", 1))
    print(f"self-test: fixture tree ({len(files)} files, "
          f"{len(findings)} findings, {len(allows)} allows, "
          f"{hot_count} hot fns)")
    for key in sorted(set(want) | set(got)):
        w, g = want.get(key, 0), got.get(key, 0)
        expect(w == g,
               f"{key[0]} [{key[1]}]: expected {w} findings, got {g}")
    min_allows = int(expected_cfg.get("min_allows", 0))
    expect(len(allows) >= min_allows,
           f"allow() suppressions counted (>= {min_allows}, "
           f"got {len(allows)})")

    # -- 2. manifest drift: a listed file or mutator that does not exist --
    drift = dict(fixture_manifest)
    drift_epoch = dict(drift.get("epoch", {}))
    drift_epoch["mutators"] = list(drift_epoch.get("mutators", [])) + [
        "mutator_that_does_not_exist"]
    drift["epoch"] = drift_epoch
    drift_findings, _, _ = run_all(files, drift)
    expect(any(f.rule == "manifest" and "mutator_that_does_not_exist"
               in f.message for f in drift_findings),
           "manifest drift (listed mutator missing) is detected")

    # ... and a listed fingerprint TU that does not exist.
    drift = dict(fixture_manifest)
    drift_det = dict(drift.get("determinism", {}))
    drift_det["fingerprint_tus"] = list(
        drift_det.get("fingerprint_tus", [])) + ["src/sim/no_such_file.hpp"]
    drift["determinism"] = drift_det
    drift_findings, _, _ = run_all(files, drift)
    expect(any(f.rule == "manifest" and "src/sim/no_such_file.hpp"
               in f.message for f in drift_findings),
           "manifest drift (listed fingerprint TU missing) is detected")

    # -- 3. live flow_tables.cpp: the epoch audit has teeth ---------------
    # Run against the REAL repo manifest and the REAL flow_tables.cpp:
    # deleting any single `++epoch_;` bump, or appending an unlisted
    # mutator, must flip the lint from green to red.
    with open(os.path.join(repo_root, "tools", "maficlint",
                           "invariants.toml"), "rb") as f:
        real_manifest = tomllib.load(f)
    real_rel = real_manifest["epoch"]["file"]
    real_path = os.path.join(repo_root, real_rel)
    with open(real_path, encoding="utf-8") as f:
        real_text = f.read()

    def epoch_findings_for(text):
        overlay = {real_rel: SourceFile(real_rel, text)}
        return check_epoch(overlay, real_manifest)

    base = epoch_findings_for(real_text)
    expect(not base, f"pristine {real_rel} passes the epoch audit")

    bumps = [m.start() for m in re.finditer(r"\+\+epoch_;", real_text)]
    n_mutators = len(real_manifest["epoch"]["mutators"])
    expect(len(bumps) == n_mutators,
           f"{real_rel} has exactly {n_mutators} epoch bumps "
           f"(one per manifest-listed mutator; got {len(bumps)})")
    for idx, off in enumerate(bumps):
        mutated = real_text[:off] + real_text[off + len("++epoch_;"):]
        broken = epoch_findings_for(mutated)
        expect(any(f.rule == "epoch" for f in broken),
               f"deleting epoch bump #{idx + 1} (offset {off}) fails "
               f"the audit")

    sneaky = real_text.replace(
        "}  // namespace mafic::core",
        "void FlowTables::sneaky_unlisted_mutator(std::uint64_t key) {\n"
        "  store_.erase(key);\n"
        "}\n\n}  // namespace mafic::core")
    expect(any(f.rule == "epoch" and "sneaky_unlisted_mutator" in f.message
               for f in epoch_findings_for(sneaky)),
           "an unlisted mutator with a mutation signal fails the audit")

    # -- 4. python self-lint: a seeded-broken script is caught ------------
    bad_py = os.path.join(fixture_root, "bad_tool.py.fixture")
    if os.path.exists(bad_py):
        probs = check_python_file(bad_py)
        expect(any("undefined name" in p for p in probs),
               "--check-tools catches an undefined name")
        expect(any("unused import" in p for p in probs),
               "--check-tools catches an unused import")

    print(f"self-test: {len(failures)} failures")
    return 1 if failures else 0


# --------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repo root (default: two levels above this file)")
    ap.add_argument("--manifest", default=None,
                    help="invariants manifest (default: beside this file)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the seeded-violation fixture battery")
    ap.add_argument("--check-tools", action="store_true",
                    help="stdlib lint of tools/*.py gate scripts")
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = args.root or os.path.dirname(os.path.dirname(here))
    manifest = args.manifest or os.path.join(here, "invariants.toml")

    if args.self_test:
        return selftest_main(root)
    if args.check_tools:
        return check_tools_main(root)
    return lint_main(root, manifest)


if __name__ == "__main__":
    sys.exit(main())
