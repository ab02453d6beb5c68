#!/usr/bin/env python3
"""repo_lint: in-tree static checks for repo invariants clang cannot see.

Rules (see DESIGN.md §7 for the rationale):

  throw          `throw` / `try` blocks are banned outside tests/. The
                 library reports recoverable failures through Status /
                 Result<T> and programming errors through DHGCN_CHECK.
  naked-new      `new` / `malloc`-family calls are banned in src/ and
                 tools/. Owning allocations go through std::make_unique /
                 containers; arena memory goes through Workspace.
  wallclock      `rand()` / `srand()` / `std::random_device` /
                 `std::chrono` are banned in src/ (library code): hidden
                 entropy or wall-clock reads break deterministic resume.
                 Seeded dhgcn::Rng and base/timer.h are the blessed paths.
  fwd-bwd-pair   Every file in src/ that mentions `ForwardInto` must also
                 implement `BackwardInto` (the shared-impl contract from
                 the workspace-planned execution design).
  discard        `(void)expr(...)` / `static_cast<void>(expr(...))` casts
                 that swallow a call result need an adjacent
                 `// lint: allow-discard` justification.
  thread         Raw threading primitives (std::thread / std::async /
                 std::mutex / std::condition_variable and friends) are
                 banned everywhere except src/base/thread_pool.{h,cc}.
                 All intra-op parallelism goes through ThreadPool so the
                 static-partitioning determinism contract holds; ad-hoc
                 threads would race it. (The serving core carries
                 file-level allows: its inter-request concurrency is the
                 reviewed exception, see DESIGN.md §11.)
  serve-wait     In src/serve/, unbounded blocking is banned: condition
                 waits must be `wait_for`/`wait_until` (or the wrapper's
                 `WaitForNanos`; a bare `.wait(` / `CondVar::Wait` can
                 deadlock the serving loop forever) and queues must be
                 bounded preallocated vectors, never std::queue /
                 std::deque / std::list.
  mutex-wrap     Raw std:: lock types (std::mutex / std::lock_guard /
                 std::unique_lock and friends) are banned in src/ and
                 tools/ outside base/thread_annotations.h. Locking goes
                 through dhgcn::Mutex / MutexLock / CondVar so every
                 guarded invariant is visible to Clang's thread-safety
                 analysis (-Wthread-safety); a raw std::mutex is a blind
                 spot the analysis silently skips.
  ws-lifetime    A tensor acquired from a Workspace arena
                 (`Acquire` / `AcquireZeroed` / `BorrowAt`) is valid only
                 until the arena's next `Reset()` and only within the
                 acquiring scope: storing one into a member / static, or
                 using it after a `Reset()` of its arena in the same
                 function, is a use-after-invalidation bug the type
                 system cannot see. (PlanRunner's pinned-arena slots are
                 the reviewed exception, escaped line-by-line.)
  sparse-route   In src/hypergraph/hypergraph_conv.*, direct dense GEMM
                 calls (MatMul / MatMulInto / MatMulTransposedB*) on the
                 incidence-shaped operands are banned: the mix operators
                 must ask ShouldRouteSparse (tensor/sparse.h) and take the
                 CSR kernels when the operand is sparse enough. A dense
                 fallback branch is the reviewed exception, escaped
                 line-by-line with `lint: allow-sparse-route`.
  plan-alloc     In src/plan/plan_runner.*, allocation and dynamic
                 dispatch are banned: PlanRunner::Run is the compiled
                 replay hot loop whose contract is zero steady-state
                 allocations and zero virtual calls. No make_unique /
                 new / push_back / reserve / resize / NewTensor /
                 Acquire / Clone / BorrowAt, and no `->Forward(` /
                 `LayerForward(` virtual-dispatch re-entry — slots are
                 pre-built in the constructor (which carries line-level
                 allows) and kernels are called non-virtually.

Escape hatches: a finding on line N is suppressed when line N, N-1 or N-2
contains `lint: allow-<rule>` (e.g. `// lint: allow-naked-new — arena`).
A file-level `// lint: allow-<rule>-file` anywhere in the file suppresses
the rule for the whole file.

Usage:
  repo_lint.py [--root DIR] [paths...]   lint the tree (or just `paths`)
  repo_lint.py --self-test               run against the bundled fixtures

Exit status: 0 = clean, 1 = findings, 2 = usage/internal error.
"""

import argparse
import os
import re
import sys

# (rule id, path prefixes the rule applies to, compiled pattern)
TESTS = ("tests/",)
LIBRARY = ("src/",)
LIBRARY_AND_TOOLS = ("src/", "tools/")
NON_TEST = ("src/", "tools/", "bench/", "examples/")
SERVING = ("src/serve/",)
PLAN_RUNNER = ("src/plan/plan_runner",)
HYPERGRAPH_CONV = ("src/hypergraph/hypergraph_conv",)

RULES = [
    (
        "throw",
        NON_TEST,
        re.compile(r"\bthrow\b|\btry\s*\{|\bcatch\s*\("),
        "exceptions are banned outside tests/ (use Status/Result or DHGCN_CHECK)",
    ),
    (
        "naked-new",
        LIBRARY_AND_TOOLS,
        re.compile(r"\bnew\b|\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\("),
        "naked allocation (use make_unique/containers or Workspace)",
    ),
    (
        "wallclock",
        LIBRARY,
        re.compile(r"std::chrono\b|\brand\s*\(|\bsrand\s*\(|std::random_device\b"),
        "hidden entropy / wall clock in library code breaks deterministic resume",
    ),
    (
        "discard",
        NON_TEST + TESTS,
        re.compile(r"(\(void\)|static_cast<\s*void\s*>\s*\()\s*[A-Za-z_:][\w:.\->]*\s*\("),
        "discarded call result needs a `// lint: allow-discard` justification",
    ),
    (
        "thread",
        NON_TEST + TESTS,
        re.compile(
            r"std::(thread|jthread|async|mutex|recursive_mutex|timed_mutex"
            r"|shared_mutex|condition_variable|condition_variable_any)\b"
        ),
        "raw threading primitive (route parallelism through "
        "base/thread_pool.h so determinism holds)",
    ),
    (
        "serve-wait",
        SERVING,
        re.compile(r"\.wait\s*\(|\.Wait\s*\(|std::(queue|deque|list)\b"),
        "unbounded blocking in serving code: use wait_for/wait_until/"
        "WaitForNanos with a deadline and bounded vector-backed queues",
    ),
    (
        "mutex-wrap",
        LIBRARY_AND_TOOLS,
        re.compile(
            r"std::(lock_guard|unique_lock|scoped_lock|shared_lock"
            r"|mutex|recursive_mutex|timed_mutex|shared_mutex"
            r"|shared_timed_mutex|condition_variable"
            r"|condition_variable_any)\b"
        ),
        "raw std:: lock type (use dhgcn::Mutex/MutexLock/CondVar from "
        "base/thread_annotations.h so -Wthread-safety sees the lock)",
    ),
    (
        "sparse-route",
        HYPERGRAPH_CONV,
        re.compile(r"\bMatMul(?:TransposedB)?(?:Into)?\s*\("),
        "direct dense GEMM on an incidence operand (route through "
        "ShouldRouteSparse + the CSR kernels; a dense fallback branch "
        "carries a `lint: allow-sparse-route` escape)",
    ),
    (
        "plan-alloc",
        PLAN_RUNNER,
        re.compile(
            r"\bmake_unique\b|\bmake_shared\b|\bnew\b"
            r"|\.push_back\s*\(|\.emplace_back\s*\("
            r"|\.reserve\s*\(|\.resize\s*\("
            r"|\bNewTensor\s*\(|\bNewZeroedTensor\s*\("
            r"|\.Acquire\s*\(|\bAcquireZeroed\s*\(|\.Clone\s*\("
            r"|\bBorrowAt\s*\("
            r"|->Forward\s*\(|\.Forward\s*\(|\bLayerForward\s*\("
        ),
        "allocation / virtual dispatch in the plan-replay hot path "
        "(pre-build slots in the ctor; call kernels non-virtually)",
    ),
    (
        "simd",
        NON_TEST + TESTS,
        re.compile(
            r"#\s*include\s*<\w*intrin\.h>"
            r"|\b_mm\d*_\w+\s*\("
            # Vector register types (__m128/__m256/__m512 and the int8/
            # integer i and double d variants) — catches ISA-specific
            # code that only declares registers without calling an
            # intrinsic on the same line.
            r"|\b__m\d{3}[id]?\b"
            r"|__builtin_cpu_supports\b"
            r"|__attribute__\s*\(\(\s*target\b"
            r"|\bvector_size\s*\("
            r"|#\s*pragma\s+(GCC\s+(ivdep|unroll|target)|omp\s+simd"
            r"|clang\s+loop)"
        ),
        "SIMD intrinsics / ISA-specific codegen are confined to the "
        "blocked GEMM kernel TU (src/tensor/gemm_kernel.*)",
    ),
]

# The one place threading primitives are allowed: the pool that wraps them.
THREAD_RULE_EXEMPT = {
    "src/base/thread_pool.h",
    "src/base/thread_pool.cc",
}

# The one place raw std:: lock types are allowed: the annotated wrapper
# that hides them behind capability attributes.
MUTEX_WRAP_RULE_EXEMPT = {
    "src/base/thread_annotations.h",
}

# The arena implementation itself hands out the borrows the ws-lifetime
# rule polices, so its own internals are exempt.
WS_LIFETIME_RULE = "ws-lifetime"
WS_LIFETIME_RULE_EXEMPT = {
    "src/tensor/workspace.h",
    "src/tensor/workspace.cc",
}

# The one place ISA-specific codegen is allowed: the micro-kernel TU
# family (fp32 and int8 blocked GEMM), where the runtime-dispatch and
# register-tile idioms live. Everything else must stay portable C++ and
# inherit vectorization through it.
SIMD_RULE_EXEMPT = {
    "src/tensor/gemm_kernel.h",
    "src/tensor/gemm_kernel.cc",
    "src/tensor/gemm_kernel_int8.h",
    "src/tensor/gemm_kernel_int8.cc",
}

PAIR_RULE = "fwd-bwd-pair"
SOURCE_EXTENSIONS = (".h", ".cc", ".cpp")
SKIP_DIRS = {"build", "build-asan", ".git", "repo_lint_testdata", "third_party"}

# `new` legitimately appears in includes of <new> and in nothrow/new-expression
# machinery we do not want to flag.
NEW_FALSE_POSITIVES = re.compile(r"#include\s*<new>|std::nothrow")

STRING_OR_CHAR = re.compile(r'"(\\.|[^"\\])*"|' + r"'(\\.|[^'\\])*'")
LINE_COMMENT = re.compile(r"//.*$")


def strip_code_line(line, in_block_comment):
    """Returns (code-only text, still-in-block-comment) for one line."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        if in_block_comment:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out), True
            i = end + 2
            in_block_comment = False
            continue
        start = line.find("/*", i)
        if start < 0:
            out.append(line[i:])
            break
        out.append(line[i:start])
        in_block_comment = True
        i = start + 2
    code = "".join(out)
    code = STRING_OR_CHAR.sub('""', code)
    code = LINE_COMMENT.sub("", code)
    return code, in_block_comment


# --- ws-lifetime pass ------------------------------------------------------
#
# Works on assembled statements (lines joined until parentheses balance
# and a `;`/`{`/`}` appears) so multi-line acquires are seen whole. Two
# violation shapes:
#
#   1. storing an acquired tensor into a member (`foo_ = ws.Acquire(...)`,
#      `foo_.push_back(ws.BorrowAt(...))`) or a static — the pointer then
#      outlives the acquiring scope and dangles at the next Reset();
#   2. using a locally-acquired tensor after its arena's Reset() in the
#      same function body.
#
# Deliberately conservative: only local declarations of the form
# `Tensor x = ws.Acquire(...)` / `auto x = ...` are lifetime-tracked, and
# tracking expires with the enclosing brace scope.

WS_ACQUIRE = r"(?:Acquire|AcquireZeroed|BorrowAt)\s*\("
WS_DECL = re.compile(
    r"\b(?:Tensor|auto)\s+(\w+)\s*=\s*(\w+)\s*(?:\.|->)\s*" + WS_ACQUIRE
)
WS_MEMBER_STORE = re.compile(
    r"\b(?:this\s*->\s*)?\w+_\s*(?:\[[^\]]*\]\s*)?=(?!=)[^;=]*\b" + WS_ACQUIRE
)
WS_MEMBER_PUSH = re.compile(
    r"\b(?:this\s*->\s*)?\w+_\s*\.\s*"
    r"(?:push_back|emplace_back|insert|assign|push|append)\s*\("
    r"[^;]*\b" + WS_ACQUIRE
)
WS_STATIC_STORE = re.compile(r"\bstatic\b[^;=()]*=[^;=]*\b" + WS_ACQUIRE)
WS_RESET = re.compile(r"\b(\w+)\s*(?:\.|->)\s*Reset\s*\(\s*\)")


def assemble_statements(code_lines):
    """Yields (start_idx, text, open_braces, close_braces) statements."""
    buf = []
    start = None
    paren_depth = 0
    for idx, code in enumerate(code_lines):
        if start is None:
            if not code.strip():
                continue
            start = idx
        buf.append(code)
        paren_depth += code.count("(") - code.count(")")
        if paren_depth <= 0 and re.search(r"[;{}]", code):
            text = " ".join(buf)
            yield start, text, text.count("{"), text.count("}")
            buf = []
            start = None
            paren_depth = 0
    if buf:
        text = " ".join(buf)
        yield start, text, text.count("{"), text.count("}")


def lint_ws_lifetime(rel_path, code_lines, allowed):
    findings = []
    alive = {}  # var -> (arena var, brace depth at declaration)
    dead = {}  # var -> (arena var, brace depth, reset line)
    depth = 0
    for start, text, opens, closes in assemble_statements(code_lines):
        stored = (
            WS_MEMBER_STORE.search(text)
            or WS_MEMBER_PUSH.search(text)
            or WS_STATIC_STORE.search(text)
        )
        if stored and not allowed(WS_LIFETIME_RULE, start):
            findings.append(
                Finding(
                    rel_path,
                    start + 1,
                    WS_LIFETIME_RULE,
                    "workspace-acquired tensor stored beyond the acquiring "
                    "scope (dangles at the arena's next Reset)",
                )
            )
        decl = WS_DECL.search(text)
        for var, (arena, var_depth, reset_line) in list(dead.items()):
            if decl is not None and decl.group(1) == var:
                continue  # redeclared below; not a stale use
            if re.search(rf"\b{re.escape(var)}\b", text) and not allowed(
                WS_LIFETIME_RULE, start
            ):
                findings.append(
                    Finding(
                        rel_path,
                        start + 1,
                        WS_LIFETIME_RULE,
                        f"`{var}` used after its arena's Reset() on line "
                        f"{reset_line} invalidated it",
                    )
                )
                del dead[var]
        if decl is not None:
            var = decl.group(1)
            dead.pop(var, None)
            alive[var] = (decl.group(2), depth)
        reset = WS_RESET.search(text)
        if reset is not None:
            arena = reset.group(1)
            for var, (var_arena, var_depth) in list(alive.items()):
                if var_arena == arena:
                    dead[var] = (var_arena, var_depth, start + 1)
                    del alive[var]
        depth += opens - closes
        if closes > opens:
            alive = {v: t for v, t in alive.items() if t[1] <= depth}
            dead = {v: t for v, t in dead.items() if t[1] <= depth}
    return findings


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def rule_applies(prefixes, rel_path):
    return any(rel_path.startswith(p) for p in prefixes)


def lint_file(root, rel_path):
    findings = []
    abs_path = os.path.join(root, rel_path)
    try:
        with open(abs_path, encoding="utf-8", errors="replace") as f:
            raw_lines = f.read().splitlines()
    except OSError as e:
        return [Finding(rel_path, 0, "io", f"cannot read file: {e}")]

    file_allows = set()
    for line in raw_lines:
        for m in re.finditer(r"lint:\s*allow-([\w-]+)-file", line):
            file_allows.add(m.group(1))

    code_lines = []
    in_block = False
    for line in raw_lines:
        code, in_block = strip_code_line(line, in_block)
        code_lines.append(code)

    def allowed(rule, idx):
        if rule in file_allows:
            return True
        lo = max(0, idx - 2)
        return any(
            f"lint: allow-{rule}" in raw_lines[j] for j in range(lo, idx + 1)
        )

    for rule, prefixes, pattern, message in RULES:
        if not rule_applies(prefixes, rel_path):
            continue
        if rule == "thread" and rel_path in THREAD_RULE_EXEMPT:
            continue
        if rule == "simd" and rel_path in SIMD_RULE_EXEMPT:
            continue
        if rule == "mutex-wrap" and rel_path in MUTEX_WRAP_RULE_EXEMPT:
            continue
        for idx, code in enumerate(code_lines):
            if not pattern.search(code):
                continue
            if rule == "naked-new" and NEW_FALSE_POSITIVES.search(
                raw_lines[idx]
            ):
                continue
            if allowed(rule, idx):
                continue
            findings.append(Finding(rel_path, idx + 1, rule, message))

    if (
        rule_applies(LIBRARY, rel_path)
        and rel_path not in WS_LIFETIME_RULE_EXEMPT
        and WS_LIFETIME_RULE not in file_allows
    ):
        findings.extend(lint_ws_lifetime(rel_path, code_lines, allowed))

    if rule_applies(LIBRARY, rel_path) and PAIR_RULE not in file_allows:
        joined = "\n".join(code_lines)
        if "ForwardInto" in joined and "BackwardInto" not in joined:
            line_no = next(
                i + 1 for i, c in enumerate(code_lines) if "ForwardInto" in c
            )
            findings.append(
                Finding(
                    rel_path,
                    line_no,
                    PAIR_RULE,
                    "file uses ForwardInto but implements no BackwardInto "
                    "(shared-impl contract)",
                )
            )
    return findings


def collect_files(root):
    out = []
    for scope in ("src", "tools", "bench", "examples", "tests"):
        scope_dir = os.path.join(root, scope)
        if not os.path.isdir(scope_dir):
            continue
        for dirpath, dirnames, filenames in os.walk(scope_dir):
            dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTENSIONS):
                    out.append(
                        os.path.relpath(os.path.join(dirpath, name), root)
                    )
    return sorted(out)


def run_lint(root, paths=None):
    rel_paths = paths if paths else collect_files(root)
    findings = []
    for rel in rel_paths:
        findings.extend(lint_file(root, rel))
    return findings


def self_test():
    """Lints the bundled fixture tree and checks each rule fires once."""
    here = os.path.dirname(os.path.abspath(__file__))
    fixture_root = os.path.join(here, "repo_lint_testdata")
    if not os.path.isdir(fixture_root):
        print(f"repo_lint self-test: missing fixtures at {fixture_root}")
        return 2

    findings = run_lint(fixture_root)
    by_rule = {}
    for f in findings:
        by_rule.setdefault(f.rule, []).append(f)

    # rule -> (fixture path, expected finding count in that file)
    expected = {
        "throw": ("src/bad_throw.cc", 1),
        "naked-new": ("src/bad_new.cc", 1),
        "wallclock": ("src/bad_wallclock.cc", 1),
        "discard": ("src/bad_discard.cc", 1),
        "thread": ("src/bad_thread.cc", 1),
        "serve-wait": ("src/serve/bad_serve_wait.cc", 1),
        "plan-alloc": ("src/plan/plan_runner_bad.cc", 1),
        "sparse-route": ("src/hypergraph/hypergraph_conv_bad.cc", 1),
        "simd": ("src/bad_simd.cc", 2),
        "mutex-wrap": ("src/bad_mutex_wrap.cc", 1),
        # Two shapes of the lifetime bug: a member store and a
        # use-after-Reset, both in the one fixture.
        WS_LIFETIME_RULE: ("src/bad_ws_lifetime.cc", 2),
        PAIR_RULE: ("src/bad_unpaired_forward.cc", 1),
    }
    failures = []
    for rule, (path, count) in expected.items():
        hits = by_rule.get(rule, [])
        if len(hits) != count:
            failures.append(
                f"rule {rule}: expected exactly {count} finding(s), got "
                f"{len(hits)}: {[str(h) for h in hits]}"
            )
        elif any(h.path != path for h in hits):
            failures.append(
                f"rule {rule}: expected finding(s) in {path}, got "
                f"{[h.path for h in hits]}"
            )
    unexpected = [f for f in findings if f.rule not in expected]
    if unexpected:
        failures.append(f"unexpected findings: {[str(f) for f in unexpected]}")

    # The escape-hatch fixture must produce no findings at all: it commits
    # every violation, each with an adjacent or file-level allow comment.
    allowed_hits = [f for f in findings if "allowed_" in f.path]
    if allowed_hits:
        failures.append(
            "escape hatches ignored: " + ", ".join(str(f) for f in allowed_hits)
        )

    if failures:
        print("repo_lint self-test FAILED:")
        for f in failures:
            print("  " + f)
        return 1
    print(f"repo_lint self-test OK ({len(findings)} expected findings)")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None, help="repo root to lint")
    parser.add_argument(
        "--self-test", action="store_true", help="run the fixture self-test"
    )
    parser.add_argument(
        "paths", nargs="*", help="root-relative files to lint (default: all)"
    )
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    )
    findings = run_lint(root, args.paths or None)
    for f in findings:
        print(f)
    if findings:
        print(f"repo_lint: {len(findings)} finding(s)")
        return 1
    print("repo_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
