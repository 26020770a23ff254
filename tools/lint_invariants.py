#!/usr/bin/env python3
"""Repo-specific determinism linter.

Enforces invariants that generic tooling (clang-tidy) cannot know about,
because they encode this repository's determinism contract (see
docs/correctness.md):

  R1 seeded-rng-only   No std::random_device / rand() / srand() / time() /
                       std::chrono::system_clock outside src/common/rng.*
                       and bench timing code (bench/). All stochastic
                       behaviour must flow through spes::Rng. The monotonic
                       clock (std::chrono::steady_clock) is likewise
                       confined: only src/obs/clock.{h,cc} (the library's
                       single wall-time read, see obs/clock.h), bench/,
                       and the standalone fuzz driver's timeout loop may
                       touch it — everything else calls
                       spes::MonotonicSeconds().
  R2 ordered-iteration No iteration over (or, conservatively, any mention
                       of) std::unordered_map / std::unordered_set in files
                       under src/metrics, src/sim, src/cluster, src/latency
                       or src/obs: these layers emit ordered output
                       (tables, series, goldens, run logs) and unordered
                       iteration order is not deterministic across
                       standard libraries.
  R3 registry-name     Every policy registration unit (a src/policies/*.cc
                       that references PolicyRegistry) must self-register
                       exactly one canonical name equal to its file stem
                       (lowercase snake_case), so the registry listing is
                       stable and greppable. Pure data-structure files
                       (e.g. iat_histogram.cc) are out of scope.
  R4 header-hygiene    Every public header under src/ must carry an include
                       guard derived from its path (SPES_<PATH>_H_) and at
                       least one Doxygen \brief.
  R5 no-raw-reinterpret
                       No reinterpret_cast in library code (src/) outside
                       src/common/binary_io.*: byte-level reinterpretation
                       is how endianness and alignment bugs sneak into the
                       deterministic file formats, so all of it is confined
                       to the one hardened serialization module.
  R6 one-registry      No name -> entry table outside the Registry<Product>
                       template in src/core/param_spec.h: a
                       std::map<std::string, Entry> member or a
                       Register(Entry ...) declaration anywhere else under
                       src/ is a hand-copied registry. New registry-built
                       components alias the template instead.
  R7 one-run-core      In src/, only src/sim/scenario.cc (the scenario run
                       core) and the Simulate() shim in src/sim/engine.cc
                       may call SimStream::Create( or
                       ClusterSession::Create(; their definitions are
                       exempt. Every other layer runs scenarios through
                       RunScenario / SuiteRunner, so there is one place
                       that builds a session from a spec.
  R8 one-training-input
                       In src/, only src/sim/engine_lane.cc (the
                       TrainPolicies() helper) may call
                       RequiresFullTrace() through `->` or `.`;
                       declarations and overrides are exempt. The helper
                       is the one place that picks the trace policies
                       train on, so no engine grows a rejection path for
                       a policy that needs the whole horizon.
  R9 one-observer-call In src/, only EngineLane::Publish (in
                       src/sim/engine_lane.cc) may call an observer's
                       OnMinute(view), the one-argument call; a
                       forwarding observer may call its inner observer
                       from its own OnMinute(const MinuteView&). Publish
                       runs once every lane has committed the minute, so
                       observers never see a half-stepped session.
                       Three-argument OnMinute calls are policy and
                       latency steps and are not matched.
  R10 declared-equals-read
                       Every Register*Policy function under src/core/ and
                       src/policies/ reads, with params.Get*("name"),
                       exactly the ParamSpec names it declares: a declared
                       knob its factory ignores, or a read of a name it
                       never declares, is a finding. Every data member of
                       SpesConfig (src/core/config.h) is a ParamSpec name
                       in RegisterSpesPolicy (src/core/spes_policy.cc),
                       and every such name is a member: a SpesConfig knob
                       no policy spec can set is a named constant instead.
                       This rule reads the files together.

Allowlist: a line that would fire R1, R2 or R5 is suppressed when it (or
the line directly above it) carries a justification comment of the form

    // det-ok: <non-empty reason>

The reason is mandatory; a bare "det-ok" is itself a finding.

Usage:
  tools/lint_invariants.py [--root DIR]     lint the repository (default .)
  tools/lint_invariants.py --self-test      seed one violation of every rule
                                            in a temp tree and assert each
                                            is flagged (exit 0 on success)

Exit status: 0 when clean, 1 when findings were emitted, 2 on usage error.
"""

import argparse
import os
import re
import sys
import tempfile

# --------------------------------------------------------------------------
# Finding model
# --------------------------------------------------------------------------


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line  # 1-based; 0 = whole file
        self.rule = rule
        self.message = message

    def __str__(self):
        where = f"{self.path}:{self.line}" if self.line else self.path
        return f"{where}: [{self.rule}] {self.message}"


DET_OK = re.compile(r"//\s*det-ok:\s*(\S.*)?$")


def _allowlisted(lines, idx):
    """True when lines[idx] (0-based) carries, or follows, a justified
    det-ok comment. Returns (allowed, finding_or_none) — an unjustified
    det-ok is itself reported."""
    for probe in (idx, idx - 1):
        if probe < 0:
            continue
        m = DET_OK.search(lines[probe])
        if m:
            if m.group(1):
                return True, None
            return True, (probe + 1, "det-ok comment without a justification")
    return False, None


# --------------------------------------------------------------------------
# R1: seeded RNG / no wall-clock
# --------------------------------------------------------------------------

R1_PATTERNS = [
    (re.compile(r"std::random_device"), "std::random_device"),
    (re.compile(r"(?<![\w.:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"(?<![\w.:>])time\s*\("), "time()"),
    (re.compile(r"std::chrono::system_clock"), "std::chrono::system_clock"),
]

R1_ALLOWED = re.compile(r"^(src/common/rng\.(h|cc)|bench/)")

# The monotonic clock has its own, tighter confinement: the library reads
# it exactly once, in src/obs/clock.{h,cc} (everything else goes through
# spes::MonotonicSeconds so instrumentation stays greppable and
# mockable). bench/ times sweeps directly; the standalone fuzz driver
# uses it for its smoke-run timeout.
R1_STEADY = re.compile(r"std::chrono::steady_clock")
R1_STEADY_ALLOWED = re.compile(
    r"^(src/obs/clock\.(h|cc)|src/common/rng\.(h|cc)|bench/"
    r"|fuzz/standalone_driver\.cc)"
)


def lint_r1(relpath, lines):
    base_allowed = bool(R1_ALLOWED.match(relpath))
    steady_allowed = bool(R1_STEADY_ALLOWED.match(relpath))
    if base_allowed and steady_allowed:
        return []
    findings = []
    for i, line in enumerate(lines):
        code = line.split("//", 1)[0]
        hit = None
        if not base_allowed:
            for pattern, label in R1_PATTERNS:
                if pattern.search(code):
                    hit = (
                        f"{label} outside src/common/rng.* / bench timing "
                        "code; route randomness through spes::Rng "
                        "(suppress with '// det-ok: <reason>')"
                    )
                    break
        if hit is None and not steady_allowed and R1_STEADY.search(code):
            hit = (
                "std::chrono::steady_clock outside src/obs/clock.* / bench "
                "timing code; read wall time through "
                "spes::MonotonicSeconds() from obs/clock.h "
                "(suppress with '// det-ok: <reason>')"
            )
        if hit is None:
            continue
        allowed, extra = _allowlisted(lines, i)
        if extra:
            findings.append(Finding(relpath, extra[0], "R1", extra[1]))
        if not allowed:
            findings.append(Finding(relpath, i + 1, "R1", hit))
    return findings


# --------------------------------------------------------------------------
# R2: no unordered-container iteration where output ordering matters
# --------------------------------------------------------------------------

R2_DIRS = re.compile(r"^src/(metrics|sim|cluster|latency|obs)/")
R2_PATTERN = re.compile(r"\bunordered_(map|set)\b")


def lint_r2(relpath, lines):
    if not R2_DIRS.match(relpath):
        return []
    findings = []
    for i, line in enumerate(lines):
        if R2_PATTERN.search(line.split("//", 1)[0]):
            allowed, extra = _allowlisted(lines, i)
            if extra:
                findings.append(Finding(relpath, extra[0], "R2", extra[1]))
            if not allowed:
                findings.append(
                    Finding(
                        relpath,
                        i + 1,
                        "R2",
                        "unordered container in an ordered-output layer "
                        "(src/metrics, src/sim, src/cluster, src/latency, "
                        "src/obs); iteration order feeds tables/goldens/"
                        "run logs — use std::map/sorted vector, or justify "
                        "with '// det-ok: <reason>'",
                    )
                )
    return findings


# --------------------------------------------------------------------------
# R3: registration units self-register their file stem as canonical name
# --------------------------------------------------------------------------

R3_FILES = re.compile(r"^src/policies/[^/]+\.cc$")
R3_NAME = re.compile(r'canonical_name\s*=\s*"([^"]*)"')


def lint_r3(relpath, lines):
    if not R3_FILES.match(relpath):
        return []
    stem = os.path.splitext(os.path.basename(relpath))[0]
    text = "\n".join(lines)
    if "PolicyRegistry" not in text:
        return []  # pure data structure, not a registration unit
    names = R3_NAME.findall(text)
    findings = []
    if not names:
        findings.append(
            Finding(
                relpath,
                0,
                "R3",
                "policy registration unit never sets entry.canonical_name; "
                "every src/policies/*.cc must self-register",
            )
        )
        return findings
    for name in names:
        if not re.fullmatch(r"[a-z][a-z0-9_]*", name):
            findings.append(
                Finding(
                    relpath,
                    0,
                    "R3",
                    f'canonical name "{name}" is not lowercase snake_case',
                )
            )
        elif name != stem:
            findings.append(
                Finding(
                    relpath,
                    0,
                    "R3",
                    f'canonical name "{name}" does not match the file stem '
                    f'"{stem}"; one policy per file, named after it',
                )
            )
    if len(names) > 1:
        findings.append(
            Finding(
                relpath,
                0,
                "R3",
                f"{len(names)} canonical names registered; expected exactly 1",
            )
        )
    return findings


# --------------------------------------------------------------------------
# R4: header guard + \brief
# --------------------------------------------------------------------------


def expected_guard(relpath):
    # src/sim/stream.h -> SPES_SIM_STREAM_H_
    inner = relpath[len("src/"):]
    inner = os.path.splitext(inner)[0]
    return "SPES_" + re.sub(r"[/.]", "_", inner).upper() + "_H_"


def lint_r4(relpath, lines):
    if not (relpath.startswith("src/") and relpath.endswith(".h")):
        return []
    text = "\n".join(lines)
    findings = []
    guard = expected_guard(relpath)
    ifndef = re.search(r"#ifndef\s+(\S+)", text)
    if not ifndef:
        findings.append(
            Finding(relpath, 0, "R4", f"missing include guard (expected {guard})")
        )
    elif ifndef.group(1) != guard:
        findings.append(
            Finding(
                relpath,
                0,
                "R4",
                f"include guard {ifndef.group(1)} does not match the "
                f"path-derived name {guard}",
            )
        )
    elif f"#define {guard}" not in text:
        findings.append(
            Finding(relpath, 0, "R4", f"#ifndef {guard} without #define {guard}")
        )
    if "\\brief" not in text:
        findings.append(
            Finding(
                relpath,
                0,
                "R4",
                "public header has no \\brief documentation",
            )
        )
    return findings


# --------------------------------------------------------------------------
# R5: reinterpret_cast confined to the hardened serialization module
# --------------------------------------------------------------------------

R5_PATTERN = re.compile(r"\breinterpret_cast\b")
R5_ALLOWED = re.compile(r"^src/common/binary_io\.(h|cc)$")


def lint_r5(relpath, lines):
    if not relpath.startswith("src/") or R5_ALLOWED.match(relpath):
        return []
    findings = []
    for i, line in enumerate(lines):
        if R5_PATTERN.search(line.split("//", 1)[0]):
            allowed, extra = _allowlisted(lines, i)
            if extra:
                findings.append(Finding(relpath, extra[0], "R5", extra[1]))
            if not allowed:
                findings.append(
                    Finding(
                        relpath,
                        i + 1,
                        "R5",
                        "reinterpret_cast outside src/common/binary_io.*; "
                        "byte-level reinterpretation belongs in the hardened "
                        "serialization module (or justify with "
                        "'// det-ok: <reason>')",
                    )
                )
    return findings


# --------------------------------------------------------------------------
# R6: one registry template
# --------------------------------------------------------------------------

R6_ALLOWED = "src/core/param_spec.h"
R6_PATTERNS = [
    (
        re.compile(r"std::map<\s*std::string\s*,\s*Entry\s*>"),
        "std::map<std::string, Entry> member",
    ),
    (re.compile(r"\bRegister\s*\(\s*Entry\b"), "Register(Entry ...) declaration"),
]


def lint_r6(relpath, lines):
    if not relpath.startswith("src/") or relpath == R6_ALLOWED:
        return []
    findings = []
    for i, line in enumerate(lines):
        code = line.split("//", 1)[0]
        for pattern, label in R6_PATTERNS:
            if pattern.search(code):
                findings.append(
                    Finding(
                        relpath,
                        i + 1,
                        "R6",
                        f"{label} outside {R6_ALLOWED}; registries are "
                        "aliases of the one Registry<Product> template, not "
                        "hand-copied name -> entry tables",
                    )
                )
                break
    return findings


# --------------------------------------------------------------------------
# R7: one run core
# --------------------------------------------------------------------------

R7_CALL = re.compile(r"\b(SimStream|ClusterSession)::Create\(")
R7_DEFINITION = re.compile(r"^Result<\s*(\w+)\s*>\s+\1::Create\(")
R7_CORE = "src/sim/scenario.cc"
R7_SHIM = "src/sim/engine.cc"


def lint_r7(relpath, lines):
    if not relpath.startswith("src/") or relpath == R7_CORE:
        return []
    findings = []
    function = ""  # the enclosing top-level definition's first line
    for i, line in enumerate(lines):
        if line[:1].isalpha() and "(" in line:
            function = line
        code = line.split("//", 1)[0]
        match = R7_CALL.search(code)
        if not match or R7_DEFINITION.match(code):
            continue
        if relpath == R7_SHIM and re.search(r"\bSimulate\(", function):
            continue
        findings.append(
            Finding(
                relpath,
                i + 1,
                "R7",
                f"{match.group(1)}::Create outside {R7_CORE} and the "
                f"Simulate() shim; run scenarios through RunScenario or "
                "SuiteRunner (sim/scenario.h, runner/suite_runner.h)",
            )
        )
    return findings


# --------------------------------------------------------------------------
# R8: one training input
# --------------------------------------------------------------------------

R8_CALL = re.compile(r"(->|\.)\s*RequiresFullTrace\s*\(")
R8_ALLOWED = "src/sim/engine_lane.cc"


def lint_r8(relpath, lines):
    if not relpath.startswith("src/") or relpath == R8_ALLOWED:
        return []
    findings = []
    for i, line in enumerate(lines):
        if R8_CALL.search(line.split("//", 1)[0]):
            findings.append(
                Finding(
                    relpath,
                    i + 1,
                    "R8",
                    f"RequiresFullTrace() called outside {R8_ALLOWED}; "
                    "TrainPolicies() alone picks the trace policies train "
                    "on (sim/engine_lane.h), so engines never reject a "
                    "policy for needing the whole horizon",
                )
            )
    return findings


# --------------------------------------------------------------------------
# R9: one observer call
# --------------------------------------------------------------------------

# A one-argument OnMinute call (an observer's); Policy::OnMinute and
# LatencyLane::OnMinute take three.
R9_CALL = re.compile(r"(->|\.)\s*OnMinute\s*\(\s*[^,()]+\)")
# The line that opens a function definition (any indentation, so inline
# member definitions count): a type, then the name and its parameters.
R9_DEFINITION = re.compile(r"^\s*(?:[\w:<>,&*]+\s+)+([\w:~]+)\s*\(")
R9_PUBLISH = ("src/sim/engine_lane.cc", "EngineLane::Publish")


def lint_r9(relpath, lines):
    if not relpath.startswith("src/"):
        return []
    findings = []
    function, signature = "", ""  # the enclosing definition
    for i, line in enumerate(lines):
        code = line.split("//", 1)[0]
        definition = R9_DEFINITION.match(code)
        if definition and not code.rstrip().endswith(";"):
            function, signature = definition.group(1), code
        if not R9_CALL.search(code):
            continue
        if (relpath, function) == R9_PUBLISH:
            continue
        if function == "OnMinute" and "const MinuteView&" in signature:
            continue  # a forwarding observer
        findings.append(
            Finding(
                relpath,
                i + 1,
                "R9",
                "SimObserver::OnMinute called outside EngineLane::Publish; "
                "observers see a minute only once every lane has committed "
                "it (sim/engine_lane.h)",
            )
        )
    return findings


# --------------------------------------------------------------------------
# R10: every policy factory reads exactly what it declares
# --------------------------------------------------------------------------

R10_CONFIG = "src/core/config.h"
R10_REGISTRY = "src/core/spes_policy.cc"
R10_DIRS = ("src/core", "src/policies")
# A data member: a type, a name, an optional default and the `;`, with no
# parentheses (member functions are not data).
R10_MEMBER = re.compile(r"^\s*(?:[\w:<>]+\s+)+(\w+)\s*(?:=[^;()]*)?;")
R10_SPEC = re.compile(r'\{\s*"(\w+)"\s*,\s*ParamType::')
R10_READ = re.compile(r'params\.Get\w*\(\s*"(\w+)"')
R10_REGISTER = re.compile(r"^void\s+(Register\w*Policy)\s*\(")


def _r10_members(lines):
    """{name: line} of SpesConfig's data members (brace depth 1)."""
    members, depth = {}, None
    for i, line in enumerate(lines):
        code = line.split("//", 1)[0]
        if depth is None:
            if re.match(r"^\s*struct\s+SpesConfig\b", code):
                depth = code.count("{") - code.count("}")
            continue
        if depth == 1 and "(" not in code:
            match = R10_MEMBER.match(code)
            if match:
                members[match.group(1)] = i + 1
        depth += code.count("{") - code.count("}")
        if depth <= 0 and "}" in code:
            break
    return members


def _r10_registrations(lines):
    """{function: (declared, read)} for every Register*Policy body, each a
    {name: line} of its ParamSpecs and of its factory's params.Get* reads
    (a spec may break its line between the name and its ParamType)."""
    found, name, first, body = {}, None, None, []

    def names(pattern, text):
        return {
            match.group(1): first + 1 + text.count("\n", 0, match.start(1))
            for match in pattern.finditer(text)
        }

    for i, line in enumerate(lines):
        code = line.split("//", 1)[0]
        if name is None:
            match = R10_REGISTER.match(code)
            if match:
                name, first, body = match.group(1), i + 1, []
            continue
        if code.startswith("}"):
            text = "\n".join(body)
            found[name] = (names(R10_SPEC, text), names(R10_READ, text))
            name = None
            continue
        body.append(code)
    return found


def _r10_read(root, rel):
    with open(os.path.join(root, rel), encoding="utf-8",
              errors="replace") as f:
        return f.read().splitlines()


def lint_r10(root):
    findings, spes_specs = [], None
    for top in R10_DIRS:
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for name in sorted(os.listdir(base)):
            if not name.endswith(".cc"):
                continue
            rel = f"{top}/{name}"
            for function, (declared, read) in sorted(
                _r10_registrations(_r10_read(root, rel)).items()
            ):
                if function == "RegisterSpesPolicy" and rel == R10_REGISTRY:
                    spes_specs = declared
                findings += [
                    Finding(
                        rel,
                        line,
                        "R10",
                        f'ParamSpec "{spec}" is declared but {function}\'s '
                        "factory never reads it; a value no spec can change "
                        "is an inline constexpr constant",
                    )
                    for spec, line in sorted(declared.items())
                    if spec not in read
                ]
                findings += [
                    Finding(
                        rel,
                        line,
                        "R10",
                        f'params.Get*("{spec}") reads a name {function} '
                        "never declares",
                    )
                    for spec, line in sorted(read.items())
                    if spec not in declared
                ]
    for rel in (R10_CONFIG, R10_REGISTRY):
        if not os.path.isfile(os.path.join(root, rel)):
            return findings + [
                Finding(rel, 0, "R10", "missing; R10 cannot compare "
                        "SpesConfig with the spes ParamSpecs")
            ]
    members = _r10_members(_r10_read(root, R10_CONFIG))
    specs = spes_specs or {}
    findings += [
        Finding(
            R10_CONFIG,
            line,
            "R10",
            f"SpesConfig::{name} has no ParamSpec in RegisterSpesPolicy; "
            "a value no spec can set is an inline constexpr constant",
        )
        for name, line in sorted(members.items()) if name not in specs
    ]
    findings += [
        Finding(
            R10_REGISTRY,
            line,
            "R10",
            f'ParamSpec "{name}" names no SpesConfig member; the factory '
            "has nowhere to put it",
        )
        for name, line in sorted(specs.items()) if name not in members
    ]
    return findings


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

RULES = (
    lint_r1, lint_r2, lint_r3, lint_r4, lint_r5, lint_r6, lint_r7, lint_r8,
    lint_r9,
)
# Rules that read several files of the tree at once.
TREE_RULES = (lint_r10,)
SCAN_DIRS = ("src", "tests", "examples", "fuzz", "bench")
SOURCE_EXT = (".h", ".cc", ".cpp")


def lint_tree(root):
    findings = []
    for top in SCAN_DIRS:
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if not name.endswith(SOURCE_EXT):
                    continue
                path = os.path.join(dirpath, name)
                relpath = os.path.relpath(path, root).replace(os.sep, "/")
                with open(path, encoding="utf-8", errors="replace") as f:
                    lines = f.read().splitlines()
                for rule in RULES:
                    findings.extend(rule(relpath, lines))
    for rule in TREE_RULES:
        findings.extend(rule(root))
    return findings


# --------------------------------------------------------------------------
# Self-test: seed one violation of every rule, assert each fires
# --------------------------------------------------------------------------

SELF_TEST_TREE = {
    # R1: wall-clock + unseeded randomness outside the allowed files.
    "src/sim/bad_clock.cc": (
        "#include <ctime>\n"
        "double Now() { return time(nullptr); }\n"
        "int Roll() { return rand(); }\n"
        "// std::chrono::system_clock mentioned in a comment is fine\n"
    ),
    # R1 (negative): same constructs are fine in bench/ and when justified.
    "bench/ok_timer.cc": "long T() { return time(nullptr); }\n",
    "src/sim/ok_justified.cc": (
        "// det-ok: wall-clock overhead metric, never feeds sim results\n"
        "double Overhead() { return time(nullptr); }\n"
    ),
    # R1: det-ok without a reason is itself a finding.
    "src/sim/bad_bare_detok.cc": ("int R() { return rand(); }  // det-ok:\n"),
    # R1: the monotonic clock is confined to src/obs/clock.{h,cc} — a
    # steady_clock read anywhere else in src/obs (or src/sim) still fires.
    "src/obs/bad_clock.cc": (
        "#include <chrono>\n"
        "double Now() {\n"
        "  return std::chrono::duration<double>(\n"
        "      std::chrono::steady_clock::now().time_since_epoch()).count();\n"
        "}\n"
    ),
    "src/sim/bad_steady.cc": (
        "#include <chrono>\n"
        "auto T() { return std::chrono::steady_clock::now(); }\n"
    ),
    # R1 (negative): the sanctioned clock translation unit itself, plus a
    # steady_clock mentioned only in a comment elsewhere.
    "src/obs/clock.cc": (
        "#include <chrono>\n"
        "double MonotonicSeconds() {\n"
        "  return std::chrono::duration<double>(\n"
        "      std::chrono::steady_clock::now().time_since_epoch()).count();\n"
        "}\n"
    ),
    "src/obs/ok_clock_comment.cc": (
        "// std::chrono::steady_clock mentioned in a comment is fine\n"
        "int NotAClock() { return 0; }\n"
    ),
    # R1 covers the latency subsystem: service-time sampling must flow
    # through the seeded per-request keys, never ambient randomness.
    "src/latency/bad_unseeded_sample.cc": (
        "#include <random>\n"
        "double SampleMs() { std::random_device rd; return rd(); }\n"
    ),
    # R2 covers src/latency/ too: queue/histogram state feeds pinned
    # goldens, so iteration order must be deterministic.
    "src/latency/bad_unordered.cc": (
        "#include <unordered_map>\n"
        "std::unordered_map<int, double> finish_times;\n"
    ),
    # R2: unordered container in an ordered-output layer.
    "src/metrics/bad_unordered.cc": (
        "#include <unordered_map>\n"
        "std::unordered_map<int, int> counters;\n"
    ),
    # R2 covers src/obs/ too: run-log objects and report tables iterate
    # members in insertion order, so parsed state must stay ordered.
    "src/obs/bad_unordered.cc": (
        "#include <unordered_set>\n"
        "std::unordered_set<int> seen_events;\n"
    ),
    # R2 (negative): justified use is allowed.
    "src/cluster/ok_unordered.cc": (
        "#include <unordered_map>  // det-ok: membership only, never iterated\n"
        "// det-ok: lookup table, results are re-sorted before emission\n"
        "std::unordered_map<int, int> lookup;\n"
    ),
    # R3: registration unit with a mismatched canonical name.
    "src/policies/bad_name.cc": (
        "void RegisterBadNamePolicy(PolicyRegistry& r) {\n"
        '  entry.canonical_name = "other_name";\n'
        "}\n"
    ),
    # R3: registration unit that never registers a canonical name.
    "src/policies/bad_silent.cc": (
        "void RegisterNothing(PolicyRegistry& r) {}\n"
    ),
    # R3 (negative): a pure data structure never touches PolicyRegistry.
    "src/policies/ok_datastructure.cc": (
        "int BinCount() { return 240; }\n"
    ),
    # R4: header with a wrong guard and no \brief.
    "src/core/bad_header.h": (
        "#ifndef WRONG_GUARD_H_\n"
        "#define WRONG_GUARD_H_\n"
        "int f();\n"
        "#endif\n"
    ),
    # R4 (negative): conforming header.
    "src/core/ok_header.h": (
        "#ifndef SPES_CORE_OK_HEADER_H_\n"
        "#define SPES_CORE_OK_HEADER_H_\n"
        "/// \\brief Fine.\n"
        "int g();\n"
        "#endif  // SPES_CORE_OK_HEADER_H_\n"
    ),
    # R5: byte reinterpretation outside the serialization module.
    "src/trace/bad_cast.cc": (
        "const char* B(const int* p) {\n"
        "  return reinterpret_cast<const char*>(p);\n"
        "}\n"
    ),
    # R5 (negative): justified use, mention in a comment, and code outside
    # src/ (the fuzz drivers take raw libFuzzer byte pointers) are fine.
    "src/sim/ok_cast.cc": (
        "// det-ok: span over POD bytes already validated by binary_io\n"
        "const char* C(const int* p) "
        "{ return reinterpret_cast<const char*>(p); }\n"
        "// a reinterpret_cast mentioned in a comment is fine\n"
    ),
    "fuzz/ok_driver_cast.cc": (
        "const char* D(const unsigned char* p) "
        "{ return reinterpret_cast<const char*>(p); }\n"
    ),
    # R6: a hand-copied registry — its entry table and its Register().
    "src/cluster/bad_registry.cc": (
        "class WidgetRegistry {\n"
        " public:\n"
        "  Status Register(Entry entry);\n"
        " private:\n"
        "  std::map<std::string, Entry> entries_;\n"
        "};\n"
    ),
    # R6 (negative): the template itself, plus a mention in a comment and
    # tests that register entries through the template.
    "src/core/param_spec.h": (
        "#ifndef SPES_CORE_PARAM_SPEC_H_\n"
        "#define SPES_CORE_PARAM_SPEC_H_\n"
        "/// \\brief The one registry template.\n"
        "template <class Product>\n"
        "class Registry {\n"
        "  Status Register(Entry entry);\n"
        "  std::map<std::string, Entry> entries_;\n"
        "};\n"
        "#endif  // SPES_CORE_PARAM_SPEC_H_\n"
    ),
    "src/sim/ok_registry_comment.cc": (
        "// no std::map<std::string, Entry> here, only Register(Entry) prose\n"
        "int H() { return 0; }\n"
    ),
    "tests/ok_registry_test.cc": (
        "Status s = registry.Register(Entry{});\n"
    ),
    # R7: a second run path that opens its own sessions, and a call in
    # engine.cc outside the Simulate() shim.
    "src/runner/bad_run_path.cc": (
        "Result<SimulationOutcome> RunJob(const Trace& trace, Policy* p) {\n"
        "  SPES_ASSIGN_OR_RETURN(SimStream stream,\n"
        "                        SimStream::Create(trace, p, {}));\n"
        "  return stream.Finish();\n"
        "}\n"
    ),
    "src/sim/engine.cc": (
        "Result<SimulationOutcome> Simulate(const Trace& trace, Policy* p,\n"
        "                                   const SimOptions& options) {\n"
        "  SPES_ASSIGN_OR_RETURN(SimStream stream,\n"
        "                        SimStream::Create(trace, p, options));\n"
        "  return stream.Finish();\n"
        "}\n"
        "Result<ClusterOutcome> RunCluster(const Trace& trace) {\n"
        "  auto s = ClusterSession::Create(trace, {}, {}, {});\n"
        "}\n"
    ),
    # R7 (negative): the run core, the session definitions, a mention in a
    # comment, and callers outside src/.
    "src/sim/scenario.cc": (
        "auto s = SimStream::Create(workload, std::move(lanes), options);\n"
        "auto c = ClusterSession::Create(workload, cluster, policy, o);\n"
    ),
    "src/sim/stream.cc": (
        "Result<SimStream> SimStream::Create(const Trace& trace, Policy* p,\n"
        "                                    const SimOptions& options) {\n"
        "  return Create(trace, std::vector<Policy*>{p}, options);\n"
        "}\n"
        "// SimStream::Create( in a comment is fine\n"
    ),
    "src/cluster/cluster.cc": (
        "Result<ClusterSession> ClusterSession::Create(const Trace& trace,\n"
        "                                              const ClusterSpec& c);\n"
    ),
    "tests/ok_stream_test.cc": (
        "SimStream s = SimStream::Create(trace, &p, {}).ValueOrDie();\n"
    ),
    # R8: an engine that grows its own rejection path, through a pointer
    # and through a reference.
    "src/cluster/bad_rejection.cc": (
        "Status Check(const Policy* policy) {\n"
        "  if (policy->RequiresFullTrace()) {\n"
        '    return Status::InvalidArgument("needs the full trace");\n'
        "  }\n"
        "  return Status::OK();\n"
        "}\n"
    ),
    "src/sim/bad_rejection.cc": (
        "bool Full(const Policy& policy) { return policy.RequiresFullTrace(); }\n"
    ),
    # R8 (negative): the training helper, an override, the declaration, a
    # call in a comment, and callers outside src/. R9 (negative): Publish
    # itself, and the policy and latency steps (three arguments).
    "src/sim/engine_lane.cc": (
        "const bool full = policies[0]->RequiresFullTrace();\n"
        "bool EngineLane::Publish(int t, const std::vector<Invocation>& a,\n"
        "                         const std::vector<SimObserver*>& obs) {\n"
        "  MinuteView view;\n"
        "  for (SimObserver* observer : obs) {\n"
        "    if (!observer->OnMinute(view)) keep_going = false;\n"
        "  }\n"
        "}\n"
        "void EngineLane::Admit(int t, const std::vector<Invocation>& a) {\n"
        "  policy_->OnMinute(t, a, &mem_);\n"
        "  latency_->OnMinute(t, a, cold_flags_);\n"
        "}\n"
    ),
    "src/policies/ok_full_trace.cc": (
        "bool RequiresFullTrace() const override { return true; }\n"
        "virtual bool RequiresFullTrace() const { return false; }\n"
        "// policy->RequiresFullTrace() mentioned in a comment is fine\n"
    ),
    "tests/ok_full_trace_test.cc": (
        "EXPECT_TRUE(oracle->RequiresFullTrace());\n"
    ),
    # R9: a session that shows observers a minute mid-step, and a policy
    # that calls one from its own step.
    "src/cluster/bad_observer_call.cc": (
        "Status ClusterSession::StepLocked() {\n"
        "  for (SimObserver* observer : observers_) {\n"
        "    observer->OnMinute(view);\n"
        "  }\n"
        "}\n"
    ),
    "src/policies/bad_observer_call.cc": (
        "void Tap::OnMinute(int t, const std::vector<Invocation>& a,\n"
        "                   MemSet* mem) {\n"
        "  watcher_.OnMinute(view_);\n"
        "}\n"
    ),
    # R9 (negative): a forwarding observer, a mention in a comment, and
    # callers outside src/. Publish itself and the three-argument policy
    # and latency steps are in the engine_lane.cc entry above.
    "src/sim/ok_forwarding_observer.cc": (
        "class Scoped : public SimObserver {\n"
        "  bool OnMinute(const MinuteView& view) override {\n"
        "    MinuteView scoped = view;\n"
        "    return inner_->OnMinute(scoped);\n"
        "  }\n"
        "  // inner_->OnMinute(view) mentioned in a comment is fine\n"
        "};\n"
    ),
    "tests/ok_observer_test.cc": (
        "EXPECT_TRUE(observer.OnMinute(view));\n"
    ),
    # R10: a SpesConfig field no spec sets (stray_knob), and a spec with
    # no field (orphan_param). The helper's local variable and the
    # commented-out spec are not flagged.
    "src/core/config.h": (
        "#ifndef SPES_CORE_CONFIG_H_\n"
        "#define SPES_CORE_CONFIG_H_\n"
        "inline constexpr int kTableConstant = 3;\n"
        "/// \\brief The spec-settable parameters.\n"
        "struct SpesConfig {\n"
        "  int theta_prewarm = 2;\n"
        "  bool enable_adjusting = true;  ///< a switch\n"
        "  int stray_knob = 7;\n"
        "  [[nodiscard]] int Scaled(int theta) const {\n"
        "    const int64_t scaled = int64_t{theta} * 2;\n"
        "    return static_cast<int>(scaled);\n"
        "  }\n"
        "};\n"
        "#endif  // SPES_CORE_CONFIG_H_\n"
    ),
    "src/core/spes_policy.cc": (
        "void RegisterSpesPolicy(PolicyRegistry& registry) {\n"
        "  entry.params = {\n"
        '      {"theta_prewarm", ParamType::kInt, ParamValue(2),\n'
        '       "pre-load window", 0, kIntParamMax},\n'
        '      {"enable_adjusting",\n'
        "       ParamType::kBool, ParamValue(true), \"adjusting\"},\n"
        '      {"orphan_param", ParamType::kInt, ParamValue(1), "x", 0, 9},\n'
        '      // {"commented_out", ParamType::kInt, ...},\n'
        "  };\n"
        "  entry.factory = [](const PolicyParams& params) {\n"
        '    config.theta_prewarm = params.GetInt("theta_prewarm");\n'
        '    config.enable_adjusting = params.GetBool("enable_adjusting");\n'
        '    (void)params.GetInt("orphan_param");\n'
        "  };\n"
        "}\n"
    ),
    # R10: a baseline factory that ignores a knob it declares
    # (declared_unread) and reads one it never declares (read_undeclared).
    "src/policies/bad_knobs.cc": (
        "void RegisterBadKnobsPolicy(PolicyRegistry& registry) {\n"
        '  entry.canonical_name = "bad_knobs";\n'
        "  entry.params = {\n"
        '      {"window", ParamType::kInt, ParamValue(10), "w", 1, 99},\n'
        '      {"declared_unread", ParamType::kDouble, ParamValue(0.5),\n'
        '       "never read", 0.0, 1.0},\n'
        "  };\n"
        "  entry.factory = [](const PolicyParams& params) {\n"
        '    return Make(params.GetInt("window"),\n'
        '                params.GetDouble("read_undeclared"));\n'
        "  };\n"
        "}\n"
    ),
    # R10 (negative): a spec and a read that break their lines, a read in a
    # comment, and a factory that declares and reads nothing.
    "src/policies/ok_knobs.cc": (
        "void RegisterOkKnobsPolicy(PolicyRegistry& registry) {\n"
        '  entry.canonical_name = "ok_knobs";\n'
        '  entry.params = {{"granularity",\n'
        '                   ParamType::kString, ParamValue("function"), "g"}};\n'
        "  entry.factory = [](const PolicyParams& params) {\n"
        "    return Make(params.GetString(\n"
        '        "granularity"));  // not params.GetInt("commented")\n'
        "  };\n"
        "}\n"
    ),
    "src/policies/ok_no_knobs.cc": (
        "void RegisterOkNoKnobsPolicy(PolicyRegistry& registry) {\n"
        '  entry.canonical_name = "ok_no_knobs";\n'
        "  entry.factory = [](const PolicyParams&) { return Make(); };\n"
        "}\n"
    ),
}

# (rule, path) pairs that MUST be flagged...
SELF_TEST_EXPECTED = [
    ("R1", "src/sim/bad_clock.cc"),
    ("R1", "src/sim/bad_bare_detok.cc"),
    ("R1", "src/latency/bad_unseeded_sample.cc"),
    ("R1", "src/obs/bad_clock.cc"),
    ("R1", "src/sim/bad_steady.cc"),
    ("R2", "src/metrics/bad_unordered.cc"),
    ("R2", "src/latency/bad_unordered.cc"),
    ("R2", "src/obs/bad_unordered.cc"),
    ("R3", "src/policies/bad_name.cc"),
    ("R3", "src/policies/bad_silent.cc"),
    ("R4", "src/core/bad_header.h"),
    ("R5", "src/trace/bad_cast.cc"),
    ("R6", "src/cluster/bad_registry.cc"),
    ("R7", "src/runner/bad_run_path.cc"),
    ("R7", "src/sim/engine.cc"),
    ("R8", "src/cluster/bad_rejection.cc"),
    ("R8", "src/sim/bad_rejection.cc"),
    ("R9", "src/cluster/bad_observer_call.cc"),
    ("R9", "src/policies/bad_observer_call.cc"),
    ("R10", "src/core/config.h"),
    ("R10", "src/core/spes_policy.cc"),
    ("R10", "src/policies/bad_knobs.cc"),
]
# ...and paths that must stay clean.
SELF_TEST_CLEAN = [
    "bench/ok_timer.cc",
    "src/sim/ok_justified.cc",
    "src/obs/clock.cc",
    "src/obs/ok_clock_comment.cc",
    "src/cluster/ok_unordered.cc",
    "src/policies/ok_datastructure.cc",
    "src/core/ok_header.h",
    "src/sim/ok_cast.cc",
    "fuzz/ok_driver_cast.cc",
    "src/core/param_spec.h",
    "src/sim/ok_registry_comment.cc",
    "tests/ok_registry_test.cc",
    "src/sim/scenario.cc",
    "src/sim/stream.cc",
    "src/cluster/cluster.cc",
    "tests/ok_stream_test.cc",
    "src/sim/engine_lane.cc",
    "src/policies/ok_full_trace.cc",
    "tests/ok_full_trace_test.cc",
    "src/sim/ok_forwarding_observer.cc",
    "tests/ok_observer_test.cc",
    "src/policies/ok_knobs.cc",
    "src/policies/ok_no_knobs.cc",
]
# (path, rule, line) findings that must NOT fire in a file that also has a
# seeded violation: the Simulate() shim's own call in engine.cc.
SELF_TEST_CLEAN_LINES = [("src/sim/engine.cc", "R7", 4)]
# The exact R10 findings: the stray field, the orphan spec, the unread
# spec and the undeclared read, nothing else of the seeded files.
SELF_TEST_R10 = {
    ("src/core/config.h", 8),
    ("src/core/spes_policy.cc", 7),
    ("src/policies/bad_knobs.cc", 5),
    ("src/policies/bad_knobs.cc", 10),
}


def self_test():
    with tempfile.TemporaryDirectory() as root:
        for relpath, content in SELF_TEST_TREE.items():
            path = os.path.join(root, relpath)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)
        findings = lint_tree(root)
        fired = {(f.rule, f.path) for f in findings}
        failures = []
        for rule, path in SELF_TEST_EXPECTED:
            if (rule, path) not in fired:
                failures.append(f"expected {rule} to fire on {path}, it did not")
        for path in SELF_TEST_CLEAN:
            hits = [f for f in findings if f.path == path]
            for f in hits:
                failures.append(f"false positive: {f}")
        for path, rule, line in SELF_TEST_CLEAN_LINES:
            hits = [
                f
                for f in findings
                if (f.path, f.rule, f.line) == (path, rule, line)
            ]
            for f in hits:
                failures.append(f"false positive: {f}")
        r10 = {(f.path, f.line) for f in findings if f.rule == "R10"}
        if r10 != SELF_TEST_R10:
            failures.append(
                f"R10 flagged {sorted(r10)}, expected {sorted(SELF_TEST_R10)}"
            )
        if failures:
            for f in failures:
                print(f"SELF-TEST FAIL: {f}", file=sys.stderr)
            return 1
        print(
            f"self-test OK: {len(SELF_TEST_EXPECTED)} seeded violations "
            f"flagged, {len(SELF_TEST_CLEAN)} clean files untouched "
            f"({len(findings)} findings total)"
        )
        return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="repository root to lint")
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="seed a violation of every rule in a temp tree and verify "
        "each is flagged",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    if not os.path.isdir(args.root):
        print(f"error: not a directory: {args.root}", file=sys.stderr)
        return 2
    findings = lint_tree(args.root)
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} invariant violation(s)", file=sys.stderr)
        return 1
    print("invariant lint clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
