#!/usr/bin/env bash
# End-to-end smoke checks of an installed msquad, one CLI process each.
#
# Usage: bash tests/smoke.sh
#
# MSQUAD is the command that runs msquad (default "msquad", the console
# script; "python -m msquad.cli" works too) and PYTHON the interpreter that
# runs the Python checks (default "python").  Both are split on spaces.  The
# script works in a fresh temporary directory, so only the installed (or
# PYTHONPATH) package imports, never a checkout in the current directory.
# It stops at the first failing check with a non-zero exit.

set -euo pipefail

MSQUAD=${MSQUAD:-msquad}
PYTHON=${PYTHON:-python}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

step() { printf '\n== %s\n' "$*"; }
msquad() { command $MSQUAD "$@"; }
fail() { echo "FAIL: $*"; exit 1; }

# fails_with CODE CMD...: run msquad with a 20 s limit; it must exit CODE and
# print one "msquad: error:" line on stderr, no traceback
fails_with() {
    local want=$1 code=0
    shift
    timeout 20 $MSQUAD "$@" 2> err.txt || code=$?
    cat err.txt
    test "$code" -eq "$want" || fail "msquad $* exited $code, want $want"
    test "$(wc -l < err.txt)" -eq 1 && grep -q '^msquad: error: ' err.txt \
        || fail "msquad $* did not print exactly one 'msquad: error:' line"
}
usage_error() { fails_with 1 "$@"; }

step "Each subcommand exits 0"
msquad integrate --f "exp(-x^2)" -a 0 -b 1 --reference --format json
msquad bounds --f "exp(-x^2)" -a 0 -b 1 -k 4
msquad kernel
msquad converge --f "exp(-x^2)" -a 0 -b 1
msquad compare --f "exp(-x^2)" -a 0 -b 1
msquad compare --f "sin(40*x)*exp(-x)" -a 0 -b 10 --format json

step "Reversed and zero-width limits print what the forward run prints"
# converge negates its integrals on reversed limits, as integrate does; a
# zero-width midpoint run prints the single-panel keys
msquad converge --f x -a 1 -b 0 --n-list 2,4 --format csv > converge.csv
$PYTHON -c "import csv; rows = list(csv.reader(open('converge.csv')))[1:3]; assert [r[1] for r in rows] == ['-0.5', '-0.5'], rows"
msquad integrate --f x -a 0 -b 0 --rule midpoint --format json > zero.json
$PYTHON -c "import json; p = json.load(open('zero.json')); assert p['n_pairs'] == 1 and 'h' not in p, p"

step "Each derivative order compiles and bounds on its own"
# a jet is compiled per derivative order asked for; f' stays finite where
# the sixth Taylor coefficient of exp(4.4e51*x)^2 overflows
msquad integrate --f "exp(4.4e51*x)^2" -a 0 -b 1e-60
for k in 2 3 4 5 6; do
    msquad bounds --f "cos(2.5*x)*exp(-1.2*x)+sqrt(1+0.7*x^2)" -a 0 -b 1 -k "$k"
done

step "Compiled code returns and raises what the reference walks do"
# generated code has no checks: where a line raises, or a jet's two-term
# sums (sum2, p + q + 0.0) do not add up to a finite value, the reference
# decides the point, so each interpreter checks that replay and sum2 here
# (x*x sums -0.0 + -0.0, which the + 0.0 makes 0.0 as the reference's
# dropped zero terms do; at 354.7 the two products of exp(x)*exp(x) are
# finite and their sum overflows; log, sqrt and 1/x raise at -1.5, -0.0
# and 0.0); an outcome is the values' hex (any NaN is "nan") or the
# error's class and message
$PYTHON -c "
import math
from msquad.expressions import compile_expression, evaluate, parse
from msquad.jets import compile_jet, derivatives
def outcome(fn, x):
    try:
        v = fn(x)
        return [c.hex() for c in (v if isinstance(v, tuple) else (v,))]
    except Exception as exc:
        return [type(exc).__name__, str(exc)]
bad = []
for text in ('exp(-1.25*x^2)*sin(3.5*x)+1/(1+0.75*x^2)',
             'cos(3.5*x)*exp(-1.25*x)+sqrt(1+0.75*x^2)',
             'log(1+0.75*x^2)*cos(3.5*x)+x/(1+1.25*x^2)',
             'log(1+x)*exp(-0.8*x)', 'exp(x)*exp(x)', 'x*x', 'sqrt(x)', '1/x'):
    tree = parse(text)
    pairs = [('value', compile_expression(tree), lambda x, t=tree: evaluate(t, x))]
    pairs += [(k, compile_jet(tree, k), lambda x, t=tree, k=k: derivatives(t, x, k).coeffs)
              for k in range(7)]
    for x in (-0.0, 0.0, 0.37, -1.5, 354.7, 1e160, math.inf, math.nan):
        for what, fn, reference in pairs:
            if outcome(fn, x) != outcome(reference, x):
                bad.append((text, what, x, outcome(fn, x), outcome(reference, x)))
assert not bad, bad
"

step "A --df override is the order-1 derivative on every path"
# the secant of a k = 2 bound is f'(b) - f'(a), which --df supplies
msquad bounds --f "sin(x)" --df "cos(x)" -a 0 -b 1 -k 2

step "Each power takes its path from its tree"
# a constant exponent, calls in it too, is known when traced: x^exp(0) is x^1
msquad integrate --f "x^exp(0)" -a -2 -b -1
# an exponent with x in it takes exp(e*log(b)), even where it is an integer,
# so a negative base is an evaluation error (exit 2) at the midpoint x = 2
fails_with 2 integrate --f "(-2)^x" -a 1 -b 3 --rule midpoint

step "Output closed early ends quietly"
# head exits after 300 bytes; msquad may then write into a closed pipe,
# which ends with exit 1 (so the pipeline's status is not checked) and must
# print no traceback
msquad compare --f "sin(40*x)*exp(-x)" -a 0 -b 10 --format json 2> err.txt | head -c 300 || true
echo
if grep -q Traceback err.txt; then cat err.txt; fail "a closed stdout printed a traceback"; fi

step "An underflowing grid spacing is a usage error, not a hang"
# h = 1e-300/(2*1e30) is 0; each command must exit 1 at once
usage_error integrate -n 1000000000000000000000000000000 --f "exp(x)" -a 0 -b 1e-300
usage_error converge --n-list 2,1000000000000000000000000000000 --f "exp(x)" -a 0 -b 1e-300

step "A subnormal grid spacing that misses the pair count is a usage error"
# h = 1e-320/16 is subnormal, so length/(2h) is not the pair count
usage_error bounds --f "exp(x)" -a 0 -b 1e-320 -k 2 -n 8
usage_error bounds --f "0*x" -a 5e-324 -b 1e-320 -k 5 -n 1 --lower 1 --upper 3

step "A huge kernel sample count is a usage error, not a hang"
# the kernel rows are built before printing; past the limit the command
# must exit 1 at once
usage_error kernel --samples 100000000000

step "A pair count past the limit is a usage error, not a hang"
# 1e7 pairs take seconds; past that the composite commands exit 1 at once
usage_error integrate --f "exp(x)" -a 0 -b 1 -n 10000001
usage_error converge --f "exp(x)" -a 0 -b 1 --n-list 2,10000001

step "A cold CLI import loads no dataclasses"
$PYTHON -c "import sys, msquad.cli; sys.exit('dataclasses' in sys.modules)"

step "The lazy package exports resolve"
# import msquad loads no module; each name is imported on first use
$PYTHON -c "import msquad; from msquad import *; print(len(msquad.__all__))"

step "smoke ok"
