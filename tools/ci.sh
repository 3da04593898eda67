#!/usr/bin/env bash
# Tiered CI entry point:
#
#   tools/ci.sh          # smoke tier, then the fault-robustness tier
#   tools/ci.sh full     # ... then the full test suite
#   tools/ci.sh analyze  # static lint + analysis tier + sanitized smoke run
#   tools/ci.sh resume   # kill a journaled run mid-grid, resume, diff tables
#   tools/ci.sh serve    # chaos serve drill + serving lint + serving suite
#
# Tier 1 (smoke): fast confidence check — see tools/smoke.sh.
# Tier 2 (faults): the fault-injection robustness suite (pytest -m faults):
#   sensor-fault models, watchdog gating + reacquisition, closed-loop
#   graceful degradation, runtime crash/hang/retry recovery, the fork
#   supervisor shared by grid workers and serving replicas
#   (tests/runtime/test_supervisor.py, also run by the serve tier), and the
#   serial/parallel/cached determinism guarantees under active fault plans.
# Tier 3 (full, opt-in): everything.
# Analyze tier (opt-in): the repro.analysis toolchain — AST lint over
#   src/repro, tests and benchmarks (intentionally-broken lint fixtures
#   excluded), the env-var table drift check, the determinism audit with
#   one real Table II cell per defense family, the analysis test suite
#   (lint rules, gradcheck, determinism audit, sanitizers), and the smoke
#   tier re-run under live REPRO_SANITIZE=nan,alias hooks.  It also fails
#   if any module under src/ except runtime/digest.py imports hashlib: every
#   cache key, artifact digest and seed goes through that one module.  It
#   fails if a nested function (a backward closure) under src/repro/nn
#   reads .requires_grad: closures ask tracks(), the one tape rule.
# Resume tier (opt-in): crash-consistency end to end — tools/resume_smoke.py
#   kills a journaled table3 run mid-grid under a fault plan, resumes it via
#   `repro.cli run --resume`, and asserts the resumed table is bit-identical
#   to an uninterrupted run.
# Serve tier (opt-in): the fault-tolerant serving layer — the serving lint
#   slice, tools/serve_smoke.py (a chaos drill that crash-loops/hangs
#   replicas and faults the scorer, asserting zero unserved ticks, journaled
#   breaker trips, and bit-identical serial/forked fingerprints), and the
#   serving test suite (pytest -m serving, including the supervisor suite).
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="${PYTHONPATH:+$PYTHONPATH:}src"

if [[ "${1:-}" == "analyze" ]]; then
    echo "== CI analyze: static lint =="
    python -m repro.cli analyze lint --exclude tests/analysis/fixtures \
        src/repro tests benchmarks

    echo "== CI analyze: one digest module =="
    hashers=$(grep -rlE --include='*.py' '^\s*(import|from)\s+hashlib' src \
        | grep -vx 'src/repro/runtime/digest.py' || true)
    if [[ -n "$hashers" ]]; then
        echo "hashlib imported outside src/repro/runtime/digest.py:"
        echo "$hashers"
        exit 1
    fi

    echo "== CI analyze: backward closures ask the tape rule =="
    python - <<'PY'
import ast, pathlib, sys
readers = sorted({f"{path}:{node.lineno}"
                  for path in pathlib.Path("src/repro/nn").rglob("*.py")
                  for outer in ast.walk(ast.parse(path.read_text()))
                  if isinstance(outer, ast.FunctionDef)
                  for inner in ast.walk(outer)
                  if isinstance(inner, ast.FunctionDef) and inner is not outer
                  for node in ast.walk(inner)
                  if isinstance(node, ast.Attribute)
                  and node.attr == "requires_grad"})
if readers:
    print("backward closures read .requires_grad instead of tracks():")
    print("\n".join(readers))
    sys.exit(1)
PY

    echo "== CI analyze: env-var table drift =="
    python -m repro.cli analyze envdoc --check README.md

    echo "== CI analyze: determinism audit (grid slice) =="
    python -m repro.cli analyze audit --grid-slice

    echo "== CI analyze: analysis suite =="
    python -m pytest -m analysis -q

    echo "== CI analyze: smoke under sanitizers =="
    REPRO_SANITIZE=nan,alias python -m pytest -m smoke -q
    exit 0
fi

if [[ "${1:-}" == "resume" ]]; then
    echo "== CI resume: kill / resume / diff =="
    python tools/resume_smoke.py
    exit 0
fi

if [[ "${1:-}" == "serve" ]]; then
    echo "== CI serve: serving lint slice =="
    python -m repro.cli analyze lint src/repro/serving

    echo "== CI serve: chaos drill =="
    python tools/serve_smoke.py

    echo "== CI serve: serving suite =="
    python -m pytest -m serving -q
    exit 0
fi

echo "== CI tier 1: smoke =="
python -m pytest -m smoke -q

echo "== CI tier 2: faults =="
python -m pytest -m faults -q

if [[ "${1:-}" == "full" ]]; then
    echo "== CI tier 3: full suite =="
    python -m pytest -q
fi
