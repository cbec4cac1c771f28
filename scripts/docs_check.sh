#!/usr/bin/env bash
# docs-check: keep the docs and the build in lockstep.
#
# Forward rule: every bench target (bench/CMakeLists.txt) and example
# (examples/CMakeLists.txt) must be mentioned in EXPERIMENTS.md or
# DESIGN.md — an undocumented binary is a doc gap.
#
# Reverse rules: every `bench_*` token and every `examples/<name>`
# reference in the docs must name a real build target; every `--flag`
# inside a fenced code block that invokes a laperm CLI binary
# (laperm_sim, laperm_submit, laperm_served) must be a real flag of one
# of the binaries that block mentions; and every protocol verb
# (`"op":"..."`) in the docs must exist in serve/service/protocol.hh —
# a stale doc reference is a doc bug.
#
# Serving rules: the serving binaries and every protocol verb declared
# in src/serve/service/protocol.hh must be documented (README.md or
# DESIGN.md).
#
# sim-lint rules: every lint rule the analyzer can emit (ruleName() in
# src/tools/sim_lint.cc) must be documented in DESIGN.md, every rule
# name the docs cite must exist, and `sim_lint` joins the CLI binaries
# whose documented flags are checked against their sources.
#
# Preset rules: every hardware preset in the registry (the kPresets
# table in src/sim/presets.cc, one entry per line) must be documented
# (backticked) in both README.md and DESIGN.md, and every `--preset X`
# example anywhere in the docs must name a real preset — same
# two-direction pattern as the sim-lint rule<->doc check.
#
# Tenant-metric rules: every fairness/tail metric the multi-tenant
# sweep emits (the TSV header literal in src/harness/tenant_sweep.cc)
# must be documented (backticked) in DESIGN.md §14, and every
# backticked metric-shaped token in the docs must be one the sweep
# actually emits; every `--tenants X` example must name a builtin mix
# or a .toml file.
set -uo pipefail
cd "$(dirname "$0")/.."

fail=0
err() {
    echo "docs-check: $*" >&2
    fail=1
}

docs="EXPERIMENTS.md DESIGN.md"
all_docs="README.md EXPERIMENTS.md DESIGN.md"

# --- Collect build targets ---------------------------------------------
bench_targets=$(grep -oE '\bbench_[a-z0-9_]+\b' bench/CMakeLists.txt |
    sort -u)
# The examples CMakeLists declares its targets in one foreach(example
# ...) list, possibly spanning lines.
example_targets=$(tr '\n' ' ' <examples/CMakeLists.txt |
    sed -E 's/.*foreach\(example ([a-z0-9_ ]+)\).*/\1/' |
    tr -s ' ' '\n' | grep -vE '^$' | sort -u)

[ -n "$bench_targets" ] || err "could not extract bench targets"
[ -n "$example_targets" ] || err "could not extract example targets"

# --- Forward: every binary is documented -------------------------------
for t in $bench_targets; do
    if ! grep -q "$t" $docs; then
        err "bench target '$t' is not mentioned in EXPERIMENTS.md or DESIGN.md"
    fi
done
for e in $example_targets; do
    if ! grep -qE "(examples/)?$e" $docs; then
        err "example '$e' is not mentioned in EXPERIMENTS.md or DESIGN.md"
    fi
done

# --- Reverse: every documented binary exists ---------------------------
# A trailing dot means a data file ("bench_output.txt"), not a target.
# Membership tests use herestrings, not `echo | grep -q`: under
# pipefail, grep -q exiting at the first match can SIGPIPE the echo
# and turn a successful lookup into a spurious failure.
doc_bench=$(grep -ohP '\bbench_[a-z0-9_]+\b(?!\.)' $all_docs | sort -u)
for t in $doc_bench; do
    if ! grep -qx "$t" <<<"$bench_targets"; then
        err "docs reference unknown bench target '$t'"
    fi
done
doc_examples=$(grep -ohE '\bexamples/[a-z0-9_]+\b' $all_docs |
    sed 's#examples/##' | sort -u)
for e in $doc_examples; do
    # Accept source-file references (examples/foo.cpp strips to foo).
    if ! grep -qx "$e" <<<"$example_targets"; then
        err "docs reference unknown example '$e'"
    fi
done

# --- Forward: serving binaries and protocol verbs are documented -------
for b in laperm_served laperm_submit; do
    if ! grep -q "$b" $all_docs; then
        err "binary '$b' is not mentioned in any doc"
    fi
done
verbs=$(grep -oE 'kVerb[A-Za-z]+ = "[a-z]+"' src/serve/service/protocol.hh |
    grep -oE '"[a-z]+"' | tr -d '"' | sort -u)
[ -n "$verbs" ] || err "could not extract protocol verbs"
for v in $verbs; do
    if ! grep -q "\"op\":\"$v\"" DESIGN.md; then
        err "protocol verb '$v' is not documented in DESIGN.md"
    fi
done

# --- Reverse: documented protocol verbs exist ---------------------------
doc_verbs=$(grep -ohE '"op":"[a-z]+"' $all_docs |
    sed -E 's/.*:"([a-z]+)"/\1/' | sort -u)
for v in $doc_verbs; do
    if ! grep -qx "$v" <<<"$verbs"; then
        err "docs reference unknown protocol verb '$v'"
    fi
done

# --- Reverse: documented CLI flags exist --------------------------------
# Every fenced code block is classified by which laperm CLI binaries it
# mentions; each `--flag` in the block must be a flag of at least one of
# those binaries: a string literal in its source, or, for laperm_sim and
# laperm_submit, a row of the shared run-field table (one `{"key",` row
# per field in src/harness/run_spec.cc; the flag is the key with
# '_' -> '-').
run_flags=$(grep -oE '^\s*\{"[a-z0-9_]+",' src/harness/run_spec.cc |
    grep -oE '[a-z0-9_]+' | tr '_' '-' | sed 's/^/--/' | sort -u)
[ -n "$run_flags" ] || err "could not extract run flags from run_spec.cc"
sim_flags=$( (grep -ohE '"--[a-z0-9-]+"' src/tools/laperm_sim.cc |
    tr -d '"'; echo "$run_flags") | sort -u)
submit_flags=$( (grep -ohE '"--[a-z0-9-]+"' src/tools/laperm_submit.cc |
    tr -d '"'; echo "$run_flags") | sort -u)
served_flags=$(grep -ohE '"--[a-z0-9-]+"' src/tools/laperm_served.cc |
    tr -d '"' | sort -u)
lint_flags=$(grep -ohE '"--[a-z0-9-]+"' src/tools/sim_lint_main.cc |
    tr -d '"' | sort -u)
bad_flags=$(awk \
    -v sim="$sim_flags" -v submit="$submit_flags" \
    -v served="$served_flags" -v lint="$lint_flags" '
    function load(list, set,   n, a, i) {
        n = split(list, a, "\n")
        for (i = 1; i <= n; i++) set[a[i]] = 1
    }
    BEGIN {
        load(sim, simf); load(submit, subf); load(served, serf)
        load(lint, lintf)
    }
    function checkblock(   n, parts, i, f, ok, hasSim, hasSub, hasSer,
                           hasLint) {
        hasSim = block ~ /laperm_sim([^a-z_]|$)/
        hasSub = block ~ /laperm_submit/
        hasSer = block ~ /laperm_served/
        hasLint = block ~ /(^|[^a-z_.])sim_lint([^a-z_]|$)/
        if (!hasSim && !hasSub && !hasSer && !hasLint) return
        n = split(block, parts, /[[:space:]]+/)
        for (i = 1; i <= n; i++) {
            f = parts[i]
            if (f !~ /^--[a-z0-9-]+$/) continue
            ok = (hasSim && (f in simf)) || (hasSub && (f in subf)) ||
                 (hasSer && (f in serf)) || (hasLint && (f in lintf))
            if (!ok) print f
        }
    }
    /^```/ {
        if (inblock) checkblock()
        inblock = !inblock
        block = ""
        next
    }
    inblock { block = block "\n" $0 }
    ' $all_docs | sort -u)
for f in $bad_flags; do
    err "docs reference flag '$f' unknown to the binaries in its code block"
done
doc_flags=$(awk '
    /^```/ {
        if (inblock && block ~ /laperm_/) print block
        inblock = !inblock
        block = ""
        next
    }
    inblock { block = block "\n" $0 }
    ' $all_docs | grep -oE '(^|[[:space:]])--[a-z0-9-]+' |
    tr -d ' \t' | sort -u)

# --- sim-lint rules: emitted <-> documented ----------------------------
# "unknown" is ruleName()'s defensive default arm, not a rule.
lint_rules=$(grep -oE 'return "[a-z][a-z-]+";' src/tools/sim_lint.cc |
    sed -E 's/return "([a-z-]+)";/\1/' | grep -vx unknown | sort -u)
[ -n "$lint_rules" ] || err "could not extract sim-lint rule names"
for r in $lint_rules; do
    if ! grep -q "\`$r\`" DESIGN.md; then
        err "sim-lint rule '$r' is not documented in DESIGN.md"
    fi
done
# Reverse: every `rule-name` cited in DESIGN.md §12's rule tables (the
# backticked kebab-case tokens that look like rules, i.e. appear in a
# sim-lint allow() or rule-list context) must be a real rule.
doc_rules=$(grep -ohE 'allow\([a-z-]+\)' $all_docs |
    sed -E 's/allow\(([a-z-]+)\)/\1/' | sort -u)
for r in $doc_rules; do
    if ! grep -qx "$r" <<<"$lint_rules"; then
        err "docs reference unknown sim-lint rule '$r' in an allow()"
    fi
done

# --- Hardware presets: registry <-> docs, both directions --------------
presets=$(grep -oE '^\s*\{"[a-z0-9]+",' src/sim/presets.cc |
    grep -oE '"[a-z0-9]+"' | tr -d '"' | sort -u)
[ -n "$presets" ] || err "could not extract preset names from presets.cc"
for p in $presets; do
    for d in README.md DESIGN.md; do
        if ! grep -q "\`$p\`" "$d"; then
            err "preset '$p' is not documented (backticked) in $d"
        fi
    done
done
doc_presets=$(grep -ohE '\-\-preset[= ][a-z0-9]+' $all_docs |
    sed -E 's/--preset[= ]//' | sort -u)
for p in $doc_presets; do
    if ! grep -qx "$p" <<<"$presets"; then
        err "docs reference unknown preset '$p' after --preset"
    fi
done

# --- Tenant metrics: sweep TSV header <-> DESIGN.md, both directions ---
tenant_hdr=$(grep -A1 '"# mix preset policy' src/harness/tenant_sweep.cc)
tenant_metrics=$(grep -ohE '\b(ANTT|STP|Jain|p(50|95|99))\b' \
    <<<"$tenant_hdr" | sort -u)
[ -n "$tenant_metrics" ] ||
    err "could not extract tenant metric names from tenant_sweep.cc"
for m in $tenant_metrics; do
    if ! grep -q "\`$m\`" DESIGN.md; then
        err "tenant metric '$m' is not documented (backticked) in DESIGN.md"
    fi
done
doc_metrics=$(grep -ohE '`(ANTT|STP|Jain|p[0-9]+)`' $all_docs |
    tr -d '\`' | sort -u)
for m in $doc_metrics; do
    # `p100` is a hardware preset, not a percentile — skip anything the
    # preset registry already claims.
    if grep -qx "$m" <<<"$presets"; then
        continue
    fi
    if ! grep -qx "$m" <<<"$tenant_metrics"; then
        err "docs reference unknown tenant metric '$m'"
    fi
done
# --tenants examples must name a builtin mix (or point at a TOML file).
mixes=$(grep -oE 'm\.name = "[a-z0-9-]+"' src/tenant/mixes.cc |
    grep -oE '"[a-z0-9-]+"' | tr -d '"' | sort -u)
[ -n "$mixes" ] || err "could not extract builtin mix names from mixes.cc"
doc_mixes=$(grep -ohE '\-\-tenants[= ][a-z0-9.-]+' $all_docs |
    sed -E 's/--tenants[= ]//' | grep -v '\.toml$' | sort -u)
for m in $doc_mixes; do
    if ! grep -qx "$m" <<<"$mixes"; then
        err "docs reference unknown builtin mix '$m' after --tenants"
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "docs-check: FAILED" >&2
    exit 1
fi
echo "docs-check: OK ($(echo "$bench_targets" | wc -l) bench targets, \
$(echo "$example_targets" | wc -l) examples, \
$(echo "$verbs" | wc -l) protocol verbs, \
$(echo "$doc_flags" | grep -c -- --) documented flags, \
$(echo "$lint_rules" | wc -l) sim-lint rules, \
$(echo "$presets" | wc -l) presets, \
$(echo "$tenant_metrics" | wc -l) tenant metrics checked)"
